// Node-compromise model (paper §IV-B).
//
// The adversary J physically compromises q nodes chosen uniformly at random
// and learns every spread code they hold. Codes held only by
// non-compromised nodes stay secret. This module materializes one such
// compromise outcome and answers the queries the jammers and the DoS
// attacker need.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "predist/code_assignment.hpp"

namespace jrsnd::adversary {

class CompromiseModel {
 public:
  /// Compromises `q` distinct nodes of `assignment` uniformly at random.
  CompromiseModel(const predist::CodeAssignment& assignment, std::uint32_t q, Rng& rng);

  [[nodiscard]] bool is_node_compromised(NodeId node) const {
    return std::binary_search(compromised_nodes_.begin(), compromised_nodes_.end(), node);
  }
  [[nodiscard]] bool is_code_compromised(CodeId code) const {
    return std::binary_search(compromised_codes_.begin(), compromised_codes_.end(), code);
  }

  [[nodiscard]] std::size_t compromised_node_count() const noexcept {
    return compromised_nodes_.size();
  }
  /// c: the number of distinct compromised codes (expected value s * alpha).
  [[nodiscard]] std::size_t compromised_code_count() const noexcept {
    return compromised_codes_.size();
  }

  /// Ascending.
  [[nodiscard]] std::vector<NodeId> compromised_nodes() const { return compromised_nodes_; }
  [[nodiscard]] std::vector<CodeId> compromised_codes() const { return compromised_codes_; }

 private:
  std::vector<NodeId> compromised_nodes_;  ///< ascending
  std::vector<CodeId> compromised_codes_;  ///< ascending, unique
};

}  // namespace jrsnd::adversary
