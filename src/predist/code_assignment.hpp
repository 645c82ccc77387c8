// The outcome of random spread-code pre-distribution: which node holds which
// codes (paper §V-A). Provides the queries the protocols and the analysis
// need — per-node code sets, pairwise shared codes, per-code holder lists —
// plus distribution statistics used by tests and benches.
//
// Per-node code sets live in one vector sorted by node id (the n real nodes
// append in id order; a join inserts), per-code holder lists in a vector
// indexed by raw code id. A codes_of() reference is invalidated by a later
// assign (and so by CodePoolAuthority::join).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace jrsnd::predist {

class CodeAssignment {
 public:
  /// Codes are pool ids 0..pool_size-1.
  explicit CodeAssignment(std::size_t pool_size) : per_code_(pool_size) {}

  /// Registers `node` as holding `codes` (sorted internally). Throws
  /// std::out_of_range for a code outside the pool and
  /// std::invalid_argument for a node already assigned.
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
  struct NodeCodes {
    NodeId node;
    std::vector<CodeId> codes;  ///< ascending
    friend bool operator<(const NodeCodes& entry, NodeId id) { return entry.node < id; }
  };

  std::vector<NodeCodes> per_node_;            ///< ascending by node
  std::vector<std::vector<NodeId>> per_code_;  ///< per_code_[raw(c)]: holders, ascending
};

}  // namespace jrsnd::predist
