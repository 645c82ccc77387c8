// NodeState's logical-neighbor table: the sorted id list it keeps beside the
// map (the paper's L_A, read by reference on every M-NDP relay step) must
// always equal the map's keys in ascending order, whatever sequence of adds,
// re-adds, and removals produced it.
#include "core/jrsnd_node.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/ibc.hpp"
#include "predist/authority.hpp"

namespace jrsnd::core {
namespace {

struct OneNode {
  predist::CodePoolAuthority authority{predist::PredistParams{16, 4, 4}, Rng(1)};
  crypto::IbcAuthority ibc{2};
  NodeState node{node_id(0), ibc.issue(node_id(0)),
                 authority.assignment().codes_of(node_id(0)), authority, 5, Rng(3)};

  void add(std::uint32_t peer, bool via_mndp = false) {
    node.add_logical_neighbor(node_id(peer), LogicalNeighbor{{}, BitVector(8), via_mndp});
  }
};

std::vector<NodeId> ids(std::initializer_list<std::uint32_t> raw_ids) {
  std::vector<NodeId> out;
  for (const std::uint32_t v : raw_ids) out.push_back(node_id(v));
  return out;
}

/// The list is ascending, duplicate-free, and names exactly the known peers.
void expect_list_matches_table(const NodeState& node) {
  const std::vector<NodeId>& list = node.logical_neighbors();
  EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  EXPECT_EQ(std::adjacent_find(list.begin(), list.end()), list.end());
  for (const NodeId peer : list) EXPECT_TRUE(node.knows(peer)) << raw(peer);
  std::size_t known = 0;
  for (std::uint32_t v = 0; v < 64; ++v) known += node.knows(node_id(v));
  EXPECT_EQ(known, list.size());
}

TEST(NodeStateNeighbors, ListStaysAscendingAndEqualToTableKeys) {
  OneNode w;
  for (const std::uint32_t peer : {9u, 3u, 40u, 1u, 17u, 2u}) {
    w.add(peer);
    expect_list_matches_table(w.node);
  }
  EXPECT_EQ(w.node.logical_neighbors(), ids({1, 2, 3, 9, 17, 40}));
  w.node.remove_logical_neighbor(node_id(9));
  w.node.remove_logical_neighbor(node_id(1));
  expect_list_matches_table(w.node);
  EXPECT_EQ(w.node.logical_neighbors(), ids({2, 3, 17, 40}));
}

TEST(NodeStateNeighbors, ReAddingAKnownPeerReplacesWithoutDuplicating) {
  OneNode w;
  w.add(5);
  w.add(7);
  w.add(5, /*via_mndp=*/true);
  EXPECT_EQ(w.node.logical_neighbors(), ids({5, 7}));
  ASSERT_NE(w.node.neighbor(node_id(5)), nullptr);
  EXPECT_TRUE(w.node.neighbor(node_id(5))->via_mndp);  // the new info won
  expect_list_matches_table(w.node);
}

TEST(NodeStateNeighbors, RemovingAnUnknownPeerIsANoOp) {
  OneNode w;
  w.add(4);
  w.add(8);
  w.node.remove_logical_neighbor(node_id(6));
  w.node.remove_logical_neighbor(node_id(4));
  w.node.remove_logical_neighbor(node_id(4));  // already gone
  EXPECT_EQ(w.node.logical_neighbors(), ids({8}));
  expect_list_matches_table(w.node);
}

TEST(NodeStateNeighbors, RemoveIfDropsEverySelectedPeerInOnePass) {
  OneNode w;
  for (std::uint32_t peer = 1; peer <= 10; ++peer) w.add(peer);
  std::vector<NodeId> seen;
  const std::size_t removed = w.node.remove_logical_neighbors_if([&](NodeId peer) {
    seen.push_back(peer);
    return raw(peer) % 3 != 0;  // adjacent peers go together: no skips
  });
  EXPECT_EQ(seen, ids({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));  // each once, ascending
  EXPECT_EQ(removed, 7u);
  EXPECT_EQ(w.node.logical_neighbors(), ids({3, 6, 9}));
  expect_list_matches_table(w.node);
  EXPECT_EQ(w.node.remove_logical_neighbors_if([](NodeId) { return true; }), 3u);
  EXPECT_TRUE(w.node.logical_neighbors().empty());
  expect_list_matches_table(w.node);
}

}  // namespace
}  // namespace jrsnd::core
