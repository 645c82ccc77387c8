// Reference oracle for sim::LogicalGraph::reachable_within: a plain
// breadth-first search over an adjacency list the caller keeps beside the
// graph.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/types.hpp"

namespace jrsnd::oracle {

/// Marks an unreachable node in hop_distances' result.
inline constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();

/// Hop distance from `source` to every node of the undirected graph
/// `adjacency` (adjacency[v] lists v's neighbors), with the edge between
/// `source` and `removed` taken out when `removed` is a node (kInvalidNode
/// removes nothing). Unreachable nodes read kUnreachable.
[[nodiscard]] std::vector<std::size_t> hop_distances(
    const std::vector<std::vector<NodeId>>& adjacency, NodeId source, NodeId removed);

}  // namespace jrsnd::oracle
