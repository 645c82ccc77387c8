#include "sim/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace jrsnd::sim {

Topology::Topology(const Field& field, std::vector<Position> positions, double radius)
    : radius_(radius), positions_(std::move(positions)) {
  build(field);
}

// Sort-free CSR build over a counting-sorted cell grid.
//
// Nodes are bucketed into radius-sized cells (same geometry and clamping as
// the seed build that bench/scale_sim reconstructs), stored contiguously
// with positions inline so the candidate scan is cache-linear; counting
// sort is stable, so ids ascend within each cell and across each row-major
// row of cells. Per cell the 3x3 window is gathered once (three contiguous
// slab ranges) and every member runs a fused branchless scan over it: the
// candidate id is stored unconditionally and the cursor advances only when
// `in_range & (id > a)`, so the scan retires no data-dependent branches. The distance predicate
// (strict `dx*dx + dy*dy < r2`, candidate minus center) is kept bit-for-bit
// identical to the seed's per-node range query, so adjacency matches the
// historical build exactly (scale_sim checks it).
//
// The collected upper runs are per-node contiguous but not sorted, and never
// need to be: degrees come from a bucket count over the upper array, and two
// scatter passes emit every row in ascending order without comparisons.
// Scatter 1 walks a ascending and appends a to row b for each upper
// neighbor b, so every row's lower section fills in ascending order.
// Scatter 2 walks b ascending, reads row b's now-complete sorted lower
// section, and appends b to row a's upper section for each lower neighbor a
// — again ascending because b ascends. Reads touch only lower sections and
// writes only upper sections, so the in-place transpose is safe.
void Topology::build(const Field& field) {
  if (radius_ <= 0.0) throw std::invalid_argument("Topology: non-positive radius");
  const std::size_t n = positions_.size();
  offsets_.assign(n + 1, 0);
  slab_.clear();
  if (n == 0) return;

  const double cell_size = std::max(radius_, 1e-9);
  const std::size_t cols = static_cast<std::size_t>(std::ceil(field.width() / cell_size)) + 1;
  const std::size_t rows = static_cast<std::size_t>(std::ceil(field.height() / cell_size)) + 1;

  struct CellEntry {
    double x, y;
    std::uint32_t id;
  };
  // All counting scratch is u32: at 100k nodes the hot random-access arrays
  // (degrees, fill cursors) must stay L2-resident, and halving their width
  // is worth more than the final widen into offsets_ costs. The scratch is
  // thread_local so rebuild loops (one build per run or per epoch) reuse
  // warm, already-faulted pages instead of paying ~20 ms of mmap traffic per
  // 100k-node build; each thread retains its high-water footprint (~15 MB at
  // 100k nodes).
  struct BuildScratch {
    std::vector<std::uint32_t> cell_of, cell_start, cursor;
    std::vector<std::uint32_t> upper_start, upper_cnt, upper;
    std::vector<std::uint32_t> lower_cnt, off32, fill;
    std::vector<CellEntry> entries, window;
  };
  static thread_local BuildScratch scratch;

  std::vector<std::uint32_t>& cell_of = scratch.cell_of;
  std::vector<std::uint32_t>& cell_start = scratch.cell_start;
  cell_of.resize(n);
  cell_start.assign(cols * rows + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cx =
        std::min(static_cast<std::size_t>(std::max(positions_[i].x, 0.0) / cell_size), cols - 1);
    const auto cy =
        std::min(static_cast<std::size_t>(std::max(positions_[i].y, 0.0) / cell_size), rows - 1);
    cell_of[i] = static_cast<std::uint32_t>(cy * cols + cx);
    ++cell_start[cell_of[i] + 1];
  }
  for (std::size_t c = 1; c < cell_start.size(); ++c) cell_start[c] += cell_start[c - 1];
  std::vector<CellEntry>& entries = scratch.entries;
  entries.resize(n);
  {
    std::vector<std::uint32_t>& cursor = scratch.cursor;
    cursor.assign(cell_start.begin(), cell_start.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      entries[cursor[cell_of[i]]++] = {positions_[i].x, positions_[i].y,
                                       static_cast<std::uint32_t>(i)};
    }
  }

  // Pass 1: fused branchless scan collecting each node's upper neighbors
  // (id > node), unsorted within the run.
  std::vector<std::uint32_t>& upper_start = scratch.upper_start;
  std::vector<std::uint32_t>& upper_cnt = scratch.upper_cnt;
  std::vector<std::uint32_t>& upper = scratch.upper;
  upper_start.resize(n);
  upper_cnt.resize(n);
  if (upper.size() < std::max<std::size_t>(n, 64)) upper.resize(std::max<std::size_t>(n, 64));
  std::size_t upper_size = 0;
  std::vector<CellEntry>& window = scratch.window;
  window.reserve(512);
  const double r2 = radius_ * radius_;
  for (std::size_t cy = 0; cy < rows; ++cy) {
    for (std::size_t cx = 0; cx < cols; ++cx) {
      const std::size_t c = cy * cols + cx;
      const std::size_t c_begin = cell_start[c];
      const std::size_t c_end = cell_start[c + 1];
      if (c_begin == c_end) continue;
      const std::size_t x_lo = cx > 0 ? cx - 1 : 0;
      const std::size_t y_lo = cy > 0 ? cy - 1 : 0;
      const std::size_t x_hi = std::min(cx + 1, cols - 1);
      const std::size_t y_hi = std::min(cy + 1, rows - 1);
      window.clear();
      for (std::size_t y = y_lo; y <= y_hi; ++y) {
        window.insert(window.end(),
                      entries.begin() + static_cast<std::ptrdiff_t>(cell_start[y * cols + x_lo]),
                      entries.begin() + static_cast<std::ptrdiff_t>(cell_start[y * cols + x_hi + 1]));
      }
      const std::size_t wn = window.size();
      // The branchless store below writes (then conditionally keeps) up to
      // wn slots per member node, so reserve the cell's worst case up front.
      const std::size_t need = upper_size + (c_end - c_begin) * wn;
      if (upper.size() < need) upper.resize(std::max(upper.size() * 2, need));
      const CellEntry* w = window.data();
      for (std::size_t k = c_begin; k < c_end; ++k) {
        const std::uint32_t a = entries[k].id;
        const double px = entries[k].x;
        const double py = entries[k].y;
        const std::size_t before = upper_size;
        for (std::size_t q = 0; q < wn; ++q) {
          const double dx = w[q].x - px;
          const double dy = w[q].y - py;
          const bool in = (dx * dx + dy * dy < r2) & (w[q].id > a);
          upper[upper_size] = w[q].id;
          upper_size += in;
        }
        upper_start[a] = static_cast<std::uint32_t>(before);
        upper_cnt[a] = static_cast<std::uint32_t>(upper_size - before);
      }
    }
  }

  // Degrees: bucket-count the upper array (lower degree), then add each
  // node's own upper count, then prefix-sum.
  std::vector<std::uint32_t>& lower_cnt = scratch.lower_cnt;
  std::vector<std::uint32_t>& off32 = scratch.off32;
  lower_cnt.resize(n);
  off32.assign(n + 1, 0);
  {
    std::uint32_t* deg = off32.data() + 1;
    for (std::size_t k = 0; k < upper_size; ++k) ++deg[upper[k]];
    for (std::size_t a = 0; a < n; ++a) {
      lower_cnt[a] = deg[a];
      deg[a] += upper_cnt[a];
    }
    std::uint64_t total = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      total += off32[i];
      off32[i] += off32[i - 1];
    }
    if (total > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("Topology: adjacency exceeds u32 offset range");
    }
  }

  slab_.resize(off32[n]);
  std::vector<std::uint32_t>& fill = scratch.fill;
  fill.assign(off32.begin(), off32.end() - 1);
  // Scatter 1: lower sections, ascending because a ascends.
  for (std::size_t a = 0; a < n; ++a) {
    const std::uint32_t* run = upper.data() + upper_start[a];
    const NodeId id_a = node_id(static_cast<std::uint32_t>(a));
    for (std::uint32_t q = 0; q < upper_cnt[a]; ++q) slab_[fill[run[q]]++] = id_a;
  }
  // Scatter 2: transpose the sorted lower sections into the upper sections.
  for (std::size_t a = 0; a < n; ++a) fill[a] = off32[a] + lower_cnt[a];
  for (std::size_t b = 0; b < n; ++b) {
    const NodeId* low = slab_.data() + off32[b];
    const NodeId id_b = node_id(static_cast<std::uint32_t>(b));
    for (std::uint32_t q = 0; q < lower_cnt[b]; ++q) slab_[fill[raw(low[q])]++] = id_b;
  }
  for (std::size_t i = 0; i <= n; ++i) offsets_[i] = off32[i];
}

const Position& Topology::position(NodeId node) const {
  const std::uint32_t idx = raw(node);
  if (idx >= positions_.size()) throw std::out_of_range("Topology::position");
  return positions_[idx];
}

std::span<const NodeId> Topology::neighbors(NodeId node) const {
  const std::uint32_t idx = raw(node);
  if (idx >= positions_.size()) throw std::out_of_range("Topology::neighbors");
  return {slab_.data() + offsets_[idx], offsets_[idx + 1] - offsets_[idx]};
}

bool Topology::are_neighbors(NodeId a, NodeId b) const {
  const auto adj = neighbors(a);
  return std::binary_search(adj.begin(), adj.end(), b);
}

std::size_t Topology::upper_begin(std::uint32_t node) const noexcept {
  const auto row_begin = slab_.begin() + static_cast<std::ptrdiff_t>(offsets_[node]);
  const auto row_end = slab_.begin() + static_cast<std::ptrdiff_t>(offsets_[node + 1]);
  return static_cast<std::size_t>(std::upper_bound(row_begin, row_end, node_id(node)) -
                                  slab_.begin());
}

double Topology::average_degree() const noexcept {
  if (positions_.empty()) return 0.0;
  return static_cast<double>(slab_.size()) / static_cast<double>(positions_.size());
}

LogicalGraph::LogicalGraph(std::size_t node_count)
    : head_(node_count, kNoEdge), tail_(node_count, kNoEdge) {}

void LogicalGraph::add_edge(NodeId a, NodeId b) {
  assert(raw(a) < head_.size() && raw(b) < head_.size() && a != b);
  if (has_edge(a, b)) return;
  for (const NodeId from : {a, b}) {
    const NodeId to = from == a ? b : a;
    const auto idx = static_cast<std::uint32_t>(arena_.size());
    arena_.push_back({to, kNoEdge});
    if (tail_[raw(from)] == kNoEdge) {
      head_[raw(from)] = idx;
    } else {
      arena_[tail_[raw(from)]].next = idx;
    }
    tail_[raw(from)] = idx;
  }
  ++edge_count_;
}

bool LogicalGraph::has_edge(NodeId a, NodeId b) const {
  assert(raw(a) < head_.size());
  for (std::uint32_t e = head_[raw(a)]; e != kNoEdge; e = arena_[e].next) {
    if (arena_[e].to == b) return true;
  }
  return false;
}

bool LogicalGraph::reachable_within(NodeId a, NodeId b, std::size_t max_hops,
                                    bool exclude_direct) const {
  if (a == b) return true;
  assert(raw(a) < head_.size() && raw(b) < head_.size());
  // Meet in the middle: a path of at most max_hops edges has a node within
  // ceil(max_hops/2) of a and floor(max_hops/2) of b. So stamp a's ball out
  // to the first radius, then search b's ball out to the second for a
  // stamped node; with exclude_direct the a-b edge is skipped from either
  // end. Each query claims two fresh scratch epochs, one per ball, so stale
  // stamps need no O(n) reset. b's search stops at the first node of a's
  // ball, so no node ever needs both stamps.
  const std::size_t n = head_.size();
  if (seen_epoch_.size() != n) {
    seen_epoch_.assign(n, 0);
    epoch_ = 0;
  }
  if (epoch_ > std::numeric_limits<std::uint32_t>::max() - 2) {
    // The epochs would wrap and stale stamps could collide: pay the one-off reset.
    std::fill(seen_epoch_.begin(), seen_epoch_.end(), 0u);
    epoch_ = 0;
  }
  const std::uint32_t near_a = ++epoch_;
  const std::uint32_t near_b = ++epoch_;

  // a's ball. b is recognized on discovery and never stamped, so no path
  // through b is grown.
  frontier_.clear();
  seen_epoch_[raw(a)] = near_a;
  frontier_.push_back(a);
  std::size_t level = 0;
  const std::size_t radius_a = max_hops - max_hops / 2;
  for (std::size_t depth = 0; depth < radius_a && level < frontier_.size(); ++depth) {
    const std::size_t level_end = frontier_.size();
    for (; level < level_end; ++level) {
      const NodeId cur = frontier_[level];
      for (std::uint32_t e = head_[raw(cur)]; e != kNoEdge; e = arena_[e].next) {
        const NodeId next = arena_[e].to;
        if (next == b) {
          if (exclude_direct && cur == a) continue;  // skip the direct edge
          return true;
        }
        if (seen_epoch_[raw(next)] != near_a) {
          seen_epoch_[raw(next)] = near_a;
          frontier_.push_back(next);
        }
      }
    }
  }

  // b's ball, probing every node it reaches against a's stamps.
  frontier_.clear();
  seen_epoch_[raw(b)] = near_b;
  frontier_.push_back(b);
  level = 0;
  for (std::size_t depth = 0; depth < max_hops / 2 && level < frontier_.size(); ++depth) {
    const std::size_t level_end = frontier_.size();
    for (; level < level_end; ++level) {
      const NodeId cur = frontier_[level];
      for (std::uint32_t e = head_[raw(cur)]; e != kNoEdge; e = arena_[e].next) {
        const NodeId next = arena_[e].to;
        const std::uint32_t stamp = seen_epoch_[raw(next)];
        if (stamp == near_a) {
          if (exclude_direct && cur == b && next == a) continue;  // the direct edge
          return true;
        }
        if (stamp != near_b) {
          seen_epoch_[raw(next)] = near_b;
          frontier_.push_back(next);
        }
      }
    }
  }
  return false;
}

}  // namespace jrsnd::sim
