#include "oracle/graph_reference.hpp"

namespace jrsnd::oracle {

std::vector<std::size_t> hop_distances(const std::vector<std::vector<NodeId>>& adjacency,
                                       NodeId source, NodeId removed) {
  std::vector<std::size_t> dist(adjacency.size(), kUnreachable);
  std::vector<NodeId> queue{source};
  dist[raw(source)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId cur = queue[head];
    for (const NodeId next : adjacency[raw(cur)]) {
      const bool removed_edge =
          (cur == source && next == removed) || (cur == removed && next == source);
      if (removed_edge || dist[raw(next)] != kUnreachable) continue;
      dist[raw(next)] = dist[raw(cur)] + 1;
      queue.push_back(next);
    }
  }
  return dist;
}

}  // namespace jrsnd::oracle
