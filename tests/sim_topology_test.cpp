#include "sim/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>
#include <stdexcept>

#include "common/rng.hpp"
#include "sim/mobility.hpp"

namespace jrsnd::sim {
namespace {

TEST(Topology, LineOfThreeNodes) {
  const Field field(100.0, 100.0);
  // A -10- B -10- C with range 15: A-B and B-C adjacent, A-C not.
  const std::vector<Position> positions = {{10, 50}, {20, 50}, {30, 50}};
  const Topology topo(field, positions, 15.0);
  EXPECT_TRUE(topo.are_neighbors(node_id(0), node_id(1)));
  EXPECT_TRUE(topo.are_neighbors(node_id(1), node_id(2)));
  EXPECT_FALSE(topo.are_neighbors(node_id(0), node_id(2)));
  EXPECT_EQ(topo.pairs().size(), 2u);
  EXPECT_NEAR(topo.average_degree(), 4.0 / 3.0, 1e-12);
}

TEST(Topology, PairsAreOrderedAndUnique) {
  const Field field(100.0, 100.0);
  const std::vector<Position> positions = {{0, 0}, {5, 0}, {10, 0}, {5, 5}};
  const Topology topo(field, positions, 8.0);
  for (const auto& [a, b] : topo.pairs()) {
    EXPECT_LT(raw(a), raw(b));
    EXPECT_TRUE(topo.are_neighbors(a, b));
  }
}

TEST(Topology, RejectsNonPositiveRadius) {
  const Field field(10.0, 10.0);
  EXPECT_THROW(Topology(field, {{1, 1}}, 0.0), std::invalid_argument);
}

TEST(Topology, AverageDegreeMatchesExpectation) {
  // g ~= (n-1) pi a^2 / |field| for uniform placement (border effects small
  // when a << field size).
  Rng rng(1);
  const Field field(5000.0, 5000.0);
  const UniformPlacement placement(field, 2000, rng);
  const Topology topo(field, placement.snapshot(kSimStart), 300.0);
  const double expected = 1999.0 * M_PI * 300.0 * 300.0 / 25e6;
  EXPECT_NEAR(topo.average_degree(), expected, expected * 0.15);
}

TEST(Topology, OutOfRangeNodeThrows) {
  const Field field(10.0, 10.0);
  const Topology topo(field, {{1, 1}}, 5.0);
  EXPECT_THROW((void)topo.neighbors(node_id(1)), std::out_of_range);
  EXPECT_THROW((void)topo.position(node_id(1)), std::out_of_range);
}

TEST(LogicalGraph, EdgesAreUndirectedAndDeduplicated) {
  LogicalGraph g(5);
  g.add_edge(node_id(0), node_id(1));
  g.add_edge(node_id(1), node_id(0));  // duplicate
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(node_id(0), node_id(1)));
  EXPECT_TRUE(g.has_edge(node_id(1), node_id(0)));
  EXPECT_FALSE(g.has_edge(node_id(0), node_id(2)));
}

TEST(LogicalGraph, ReachabilityWithinHops) {
  // Path 0-1-2-3-4.
  LogicalGraph g(5);
  for (std::uint32_t i = 0; i + 1 < 5; ++i) g.add_edge(node_id(i), node_id(i + 1));
  EXPECT_TRUE(g.reachable_within(node_id(0), node_id(1), 1));
  EXPECT_FALSE(g.reachable_within(node_id(0), node_id(2), 1));
  EXPECT_TRUE(g.reachable_within(node_id(0), node_id(2), 2));
  EXPECT_TRUE(g.reachable_within(node_id(0), node_id(4), 4));
  EXPECT_FALSE(g.reachable_within(node_id(0), node_id(4), 3));
}

TEST(LogicalGraph, SelfIsAlwaysReachable) {
  LogicalGraph g(3);
  EXPECT_TRUE(g.reachable_within(node_id(1), node_id(1), 0));
}

TEST(LogicalGraph, DisconnectedComponentsUnreachable) {
  LogicalGraph g(4);
  g.add_edge(node_id(0), node_id(1));
  g.add_edge(node_id(2), node_id(3));
  EXPECT_FALSE(g.reachable_within(node_id(0), node_id(2), 100));
}

// CSR adjacency vs the O(n^2) oracle: every row must hold exactly the nodes
// strictly within radius, ascending, and pairs() must stream exactly the
// upper-triangle pairs in lexicographic order.
TEST(Topology, PropertyMatchesBruteForceOracle) {
  struct Config {
    double w, h, radius;
    int n;
  };
  const Config configs[] = {
      {400.0, 400.0, 60.0, 150},
      {1500.0, 300.0, 120.0, 200},  // wide strip: boundary cells dominate
      {100.0, 100.0, 150.0, 50},    // radius beyond the field: near-clique
      {900.0, 900.0, 25.0, 180},    // sparse
  };
  std::uint64_t seed = 42;
  for (const Config& cfg : configs) {
    Rng rng(seed++);
    const Field field(cfg.w, cfg.h);
    std::vector<Position> positions;
    for (int i = 0; i < cfg.n; ++i) {
      positions.push_back({rng.uniform_real(0, cfg.w), rng.uniform_real(0, cfg.h)});
    }
    const Topology topo(field, positions, cfg.radius);
    std::vector<std::pair<NodeId, NodeId>> oracle_pairs;
    std::size_t total_degree = 0;
    for (std::uint32_t i = 0; i < positions.size(); ++i) {
      std::vector<NodeId> oracle_row;
      for (std::uint32_t j = 0; j < positions.size(); ++j) {
        if (j == i) continue;
        const double dx = positions[j].x - positions[i].x;
        const double dy = positions[j].y - positions[i].y;
        if (dx * dx + dy * dy < cfg.radius * cfg.radius) {
          oracle_row.push_back(node_id(j));
          if (j > i) oracle_pairs.emplace_back(node_id(i), node_id(j));
        }
      }
      const auto row = topo.neighbors(node_id(i));
      ASSERT_EQ(std::vector<NodeId>(row.begin(), row.end()), oracle_row)
          << "field " << cfg.w << "x" << cfg.h << " node " << i;
      total_degree += row.size();
    }
    // pairs() must stream the oracle's lexicographic upper triangle exactly.
    std::vector<std::pair<NodeId, NodeId>> streamed;
    for (const auto& [a, b] : topo.pairs()) streamed.emplace_back(a, b);
    EXPECT_EQ(streamed, oracle_pairs);
    EXPECT_EQ(topo.pairs().size(), oracle_pairs.size());
    EXPECT_DOUBLE_EQ(topo.average_degree(),
                     static_cast<double>(total_degree) / static_cast<double>(cfg.n));
  }
}

TEST(Topology, EmptyAndSingleNode) {
  const Field field(100.0, 100.0);
  const Topology empty(field, std::vector<Position>{}, 10.0);
  EXPECT_EQ(empty.pairs().size(), 0u);
  EXPECT_EQ(empty.pairs().begin(), empty.pairs().end());
  const Topology one(field, {{5, 5}}, 10.0);
  EXPECT_EQ(one.pairs().size(), 0u);
  EXPECT_TRUE(one.neighbors(node_id(0)).empty());
}

// Repeated reachability queries share epoch-stamped scratch; answers must be
// identical no matter how many searches ran before, including searches from
// other sources and at other hop limits on the same graph.
TEST(LogicalGraph, RepeatedQueriesWithSharedScratchAreIdentical) {
  Rng rng(5);
  LogicalGraph g(60);
  for (int e = 0; e < 150; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_int(0, 59));
    const auto b = static_cast<std::uint32_t>(rng.uniform_int(0, 59));
    if (a != b) g.add_edge(node_id(a), node_id(b));
  }
  const auto probe = [&g] {
    std::vector<bool> reach;
    for (std::size_t hops = 1; hops <= 4; ++hops) {
      for (std::uint32_t v = 0; v < 60; ++v) {
        reach.push_back(g.reachable_within(node_id(0), node_id(v), hops));
      }
    }
    return reach;
  };
  const std::vector<bool> first = probe();
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  for (int round = 0; round < 5; ++round) {
    // Churn the search epoch with queries from other sources.
    const auto source = node_id(static_cast<std::uint32_t>(7 * round + 1) % 60);
    for (std::uint32_t v = 0; v < 60; ++v) {
      (void)g.reachable_within(source, node_id(v), 6, /*exclude_direct=*/v % 2 == 0);
    }
    EXPECT_EQ(probe(), first) << "round " << round;
  }
}

TEST(LogicalGraph, TriangleVsTwoHop) {
  // The M-NDP nu = 2 scenario: A and B share common neighbor C.
  LogicalGraph g(3);
  g.add_edge(node_id(0), node_id(2));  // A - C
  g.add_edge(node_id(1), node_id(2));  // B - C
  EXPECT_TRUE(g.reachable_within(node_id(0), node_id(1), 2));
  EXPECT_FALSE(g.reachable_within(node_id(0), node_id(1), 1));
}

}  // namespace
}  // namespace jrsnd::sim
