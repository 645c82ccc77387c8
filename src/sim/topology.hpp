// Physical-neighbor topology: who is in whose transmission range.
//
// Built from a placement snapshot + transmission radius. Adjacency is stored
// in CSR form — one offsets array plus one flat neighbor slab — so the graph
// is two allocations, not n inner vectors. Exposes the queries the protocols
// and analysis need: adjacency spans, an iterator view over the
// physical-neighbor pairs (the denominator of every P-hat figure, never
// materialized), average degree g (Theorem 3), and bounded-hop reachability
// over the logical graph with reusable epoch-stamped scratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/field.hpp"

namespace jrsnd::sim {

class Topology {
 public:
  /// Builds the neighbor graph of `positions` with transmission `radius`.
  Topology(const Field& field, std::vector<Position> positions, double radius);

  [[nodiscard]] std::size_t node_count() const noexcept { return positions_.size(); }
  [[nodiscard]] double radius() const noexcept { return radius_; }
  [[nodiscard]] const Position& position(NodeId node) const;

  /// Physical neighbors of `node`, ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId node) const;

  [[nodiscard]] bool are_neighbors(NodeId a, NodeId b) const;

  /// Lazily iterated view over every unordered physical-neighbor pair
  /// (a < b), in ascending (a, b) order — nothing is materialized.
  class PairView {
   public:
    class iterator {
     public:
      using value_type = std::pair<NodeId, NodeId>;
      using difference_type = std::ptrdiff_t;
      using iterator_category = std::forward_iterator_tag;

      iterator() noexcept = default;
      iterator(const Topology* topo, std::uint32_t node, std::size_t pos) noexcept
          : topo_(topo), node_(node), pos_(pos) {}

      value_type operator*() const noexcept {
        return {node_id(node_), topo_->slab_[pos_]};
      }
      iterator& operator++() noexcept {
        ++pos_;
        advance();
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator copy = *this;
        ++*this;
        return copy;
      }
      bool operator==(const iterator& o) const noexcept {
        return node_ == o.node_ && pos_ == o.pos_;
      }

     private:
      friend class PairView;
      /// Moves to the next slab position holding a neighbor > its row's id,
      /// hopping rows as needed. Rows are ascending, so within a row the
      /// upper neighbors form the tail starting at upper_begin(node).
      void advance() noexcept {
        const std::size_t n = topo_->offsets_.size() - 1;
        while (node_ < n && pos_ >= topo_->offsets_[node_ + 1]) {
          ++node_;
          if (node_ < n) pos_ = topo_->upper_begin(node_);
        }
      }

      const Topology* topo_ = nullptr;
      std::uint32_t node_ = 0;
      std::size_t pos_ = 0;
    };

    explicit PairView(const Topology* topo) noexcept : topo_(topo) {}

    [[nodiscard]] iterator begin() const noexcept {
      iterator it(topo_, 0, topo_->node_count() == 0 ? 0 : topo_->upper_begin(0));
      it.advance();
      return it;
    }
    [[nodiscard]] iterator end() const noexcept {
      const auto n = static_cast<std::uint32_t>(topo_->node_count());
      return iterator(topo_, n, topo_->slab_.size());
    }
    [[nodiscard]] std::size_t size() const noexcept { return topo_->pair_count(); }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }

   private:
    const Topology* topo_;
  };

  [[nodiscard]] PairView pairs() const noexcept { return PairView(this); }
  [[nodiscard]] std::size_t pair_count() const noexcept { return slab_.size() / 2; }

  /// Average physical degree g.
  [[nodiscard]] double average_degree() const noexcept;

 private:
  friend class PairView;

  /// Fills offsets_/slab_ from positions_ (counting-sorted cell grid +
  /// symmetric half scan; see topology.cpp).
  void build(const Field& field);

  /// First slab position of `node`'s row holding a neighbor id > node.
  [[nodiscard]] std::size_t upper_begin(std::uint32_t node) const noexcept;

  double radius_;
  std::vector<Position> positions_;
  std::vector<std::size_t> offsets_;  // node_count + 1 row boundaries
  std::vector<NodeId> slab_;          // flat adjacency, each row ascending
};

/// An undirected logical graph over the same node ids (edges = discovered
/// pairs). Used for M-NDP: two physical neighbors indirectly discover each
/// other iff the logical graph connects them within nu hops.
///
/// Adjacency is arena-backed: per-node chains threaded through one flat
/// half-edge slab, so add_edge never allocates per node. Reachability
/// queries reuse epoch-stamped BFS scratch — repeated probes on a shared
/// graph allocate nothing after the first — which also makes them unsafe to
/// call concurrently on one instance.
class LogicalGraph {
 public:
  explicit LogicalGraph(std::size_t node_count);

  void add_edge(NodeId a, NodeId b);
  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return head_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  /// True when a path of at most `max_hops` edges connects a and b.
  /// With `exclude_direct`, the single edge a-b (if present) is ignored —
  /// the M-NDP question "could A and B meet through intermediaries?" asked
  /// of a pair that already has a direct logical link.
  [[nodiscard]] bool reachable_within(NodeId a, NodeId b, std::size_t max_hops,
                                      bool exclude_direct = false) const;

 private:
  static constexpr std::uint32_t kNoEdge = 0xffffffffu;

  struct HalfEdge {
    NodeId to;
    std::uint32_t next;  // arena index of the row's next half-edge
  };

  std::vector<std::uint32_t> head_;  // per node: first half-edge or kNoEdge
  std::vector<std::uint32_t> tail_;  // per node: last half-edge (append O(1))
  std::vector<HalfEdge> arena_;
  std::size_t edge_count_ = 0;

  // Epoch-stamped BFS scratch: dist_[v] is valid iff seen_epoch_[v] equals
  // the current epoch, so queries skip the O(n) reset entirely.
  mutable std::vector<std::uint32_t> seen_epoch_;
  mutable std::vector<std::uint32_t> dist_;
  mutable std::vector<NodeId> frontier_;
  mutable std::uint32_t epoch_ = 0;
};

}  // namespace jrsnd::sim
