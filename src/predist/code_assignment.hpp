// The outcome of random spread-code pre-distribution: which node holds which
// codes (paper §V-A). Provides the queries the protocols and the analysis
// need — per-node code sets, pairwise shared codes, per-code holder lists —
// plus distribution statistics used by tests and benches.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace jrsnd::predist {

class CodeAssignment {
 public:
  CodeAssignment() = default;

  /// Registers `node` as holding `codes` (sorted internally).
  void assign(NodeId node, std::vector<CodeId> codes);

  [[nodiscard]] bool has_node(NodeId node) const;

  /// Codes held by `node`, ascending by raw id. Precondition: has_node(node).
  [[nodiscard]] const std::vector<CodeId>& codes_of(NodeId node) const;

  /// Codes held by both `a` and `b` (set intersection), ascending.
  [[nodiscard]] std::vector<CodeId> shared_codes(NodeId a, NodeId b) const;

  /// Nodes holding `code`, ascending.
  [[nodiscard]] std::vector<NodeId> holders_of(CodeId code) const;

  /// Number of registered nodes.
  [[nodiscard]] std::size_t node_count() const noexcept { return per_node_.size(); }

  /// All registered node ids, ascending.
  [[nodiscard]] std::vector<NodeId> nodes() const;

  /// The largest number of holders over all codes (paper invariant: <= l,
  /// or slightly above after late joins).
  [[nodiscard]] std::size_t max_holders() const;

  /// Entry x = number of node pairs sharing exactly x codes, computed
  /// over every unordered pair (O(n^2 * m) — test/bench sizes only).
  [[nodiscard]] std::vector<std::size_t> shared_count_histogram() const;

 private:
  std::unordered_map<NodeId, std::vector<CodeId>> per_node_;
  std::unordered_map<CodeId, std::vector<NodeId>> per_code_;
};

}  // namespace jrsnd::predist
