// NodeState's logical-neighbor table: the sorted id list (the paper's L_A,
// read by reference on every M-NDP relay step) must always name exactly the
// known peers in ascending order, each with its own info, whatever sequence
// of adds, re-adds, and removals produced it.
#include "core/jrsnd_node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

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

/// Info that names its own peer, so a lookup that returned another peer's
/// entry shows.
LogicalNeighbor tagged(std::uint32_t peer, std::uint32_t version = 0) {
  LogicalNeighbor info;
  info.session_code.append_uint(peer, 16);
  info.session_code.append_uint(version, 8);
  info.via_mndp = version != 0;
  return info;
}

/// Every listed peer's neighbor() is its own info at `versions`' version.
void expect_links_aligned(const NodeState& node,
                          const std::map<std::uint32_t, std::uint32_t>& versions) {
  const std::vector<NodeId>& list = node.logical_neighbors();
  ASSERT_EQ(list.size(), versions.size());
  EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  for (const auto& [peer, version] : versions) {
    const LogicalNeighbor* info = node.neighbor(node_id(peer));
    ASSERT_NE(info, nullptr) << peer;
    EXPECT_EQ(info->session_code, tagged(peer, version).session_code) << peer;
    EXPECT_EQ(info->via_mndp, version != 0) << peer;
  }
  expect_list_matches_table(node);
}

TEST(NodeStateNeighbors, OutOfOrderAddsKeepIdsAndLinksAligned) {
  OneNode w;
  std::map<std::uint32_t, std::uint32_t> versions;
  for (const std::uint32_t peer : {40u, 30u, 20u, 10u}) {  // descending
    w.node.add_logical_neighbor(node_id(peer), tagged(peer));
    versions[peer] = 0;
    expect_links_aligned(w.node, versions);
  }
  for (const std::uint32_t peer : {25u, 5u, 35u, 15u, 45u}) {  // interleaved
    w.node.add_logical_neighbor(node_id(peer), tagged(peer));
    versions[peer] = 0;
    expect_links_aligned(w.node, versions);
  }
  w.node.add_logical_neighbor(node_id(20), tagged(20, 1));  // replace
  versions[20] = 1;
  expect_links_aligned(w.node, versions);
  w.node.remove_logical_neighbor(node_id(30));
  versions.erase(30);
  expect_links_aligned(w.node, versions);
  EXPECT_EQ(w.node.neighbor(node_id(30)), nullptr);
  EXPECT_EQ(w.node.remove_logical_neighbors_if([](NodeId peer) { return raw(peer) % 10 == 5; }),
            5u);
  for (const std::uint32_t gone : {5u, 15u, 25u, 35u, 45u}) versions.erase(gone);
  expect_links_aligned(w.node, versions);
  EXPECT_EQ(w.node.logical_neighbors(), ids({10, 20, 40}));
}

}  // namespace
}  // namespace jrsnd::core
