// Cross-plane validation: the same D-NDP handshake executed over the
// chip-accurate PHY (real ECC + spreading + sync + jamming chips) and over
// the Theorem-1 AbstractPhy must agree on outcomes: clean channel ->
// discovery with identical session codes; reactive jamming of all shared
// codes -> failure on both planes.
#include <gtest/gtest.h>

#include "adversary/compromise.hpp"
#include "adversary/jammer.hpp"
#include "core/abstract_phy.hpp"
#include "core/chip_phy.hpp"
#include "core/dndp.hpp"
#include "sim/topology.hpp"

namespace jrsnd::core {
namespace {

struct ChipWorld {
  Params params;
  predist::CodePoolAuthority authority;
  crypto::IbcAuthority ibc;
  sim::Field field;
  sim::Topology topology;
  Rng phy_rng;
  std::vector<NodeState> nodes;
  dsss::NodeCodebookCache code_cache;

  explicit ChipWorld(std::uint64_t seed)
      : params(make_params()),
        authority(params.predist(), Rng(seed)),
        ibc(seed + 1),
        field(params.field_width, params.field_height),
        topology(field, {{10, 10}, {20, 10}, {30, 10}, {10, 20}, {20, 20}, {30, 20}},
                 params.tx_range),
        phy_rng(seed + 2) {
    Rng node_rng(seed + 3);
    nodes = issue_nodes(authority, ibc, params.n, params.gamma, node_rng);
  }

  static Params make_params() {
    Params p = Params::defaults();
    p.n = 6;
    p.m = 3;
    p.l = 4;
    p.N = 128;       // keep the chip-level scan affordable
    p.tau = 0.3;     // scaled for N = 128
    p.field_width = 100.0;
    p.field_height = 100.0;
    p.tx_range = 200.0;
    return p;
  }

  [[nodiscard]] ChipPhy::Codebook codebook() { return usable_codebook(nodes, code_cache); }

  [[nodiscard]] std::pair<NodeId, NodeId> pair_sharing(std::size_t min_shared) const {
    for (std::uint32_t i = 0; i < params.n; ++i) {
      for (std::uint32_t j = i + 1; j < params.n; ++j) {
        if (authority.assignment().shared_codes(node_id(i), node_id(j)).size() >= min_shared) {
          return {node_id(i), node_id(j)};
        }
      }
    }
    return {kInvalidNode, kInvalidNode};
  }
};

TEST(DndpOverChipPhy, CleanChannelFullHandshake) {
  ChipWorld w(1);
  const auto [a, b] = w.pair_sharing(1);
  ASSERT_NE(a, kInvalidNode);

  adversary::NullJammer jammer;
  ChipPhy phy(w.params, w.topology, jammer, w.codebook(), w.phy_rng);
  DndpEngine engine(w.params, phy);

  const DndpResult result = engine.run(w.nodes[raw(a)], w.nodes[raw(b)]);
  EXPECT_TRUE(result.discovered);
  EXPECT_GT(phy.chip_messages(), 0u);
  EXPECT_EQ(phy.chip_jams(), 0u);
  ASSERT_NE(w.nodes[raw(a)].neighbor(b), nullptr);
  ASSERT_NE(w.nodes[raw(b)].neighbor(a), nullptr);
  EXPECT_EQ(w.nodes[raw(a)].neighbor(b)->session_code,
            w.nodes[raw(b)].neighbor(a)->session_code);
}

TEST(DndpOverChipPhy, ReactiveJammerOnAllCodesBlocksDiscovery) {
  ChipWorld w(2);
  const auto [a, b] = w.pair_sharing(1);
  ASSERT_NE(a, kInvalidNode);

  // Compromise everyone: every pool code is known to the jammer.
  Rng comp_rng(7);
  adversary::CompromiseModel compromise(w.authority.assignment(), w.params.n, comp_rng);
  adversary::ReactiveJammer jammer(compromise, {w.params.z, w.params.mu});
  ChipPhy phy(w.params, w.topology, jammer, w.codebook(), w.phy_rng);
  DndpEngine engine(w.params, phy);

  const DndpResult result = engine.run(w.nodes[raw(a)], w.nodes[raw(b)]);
  EXPECT_FALSE(result.discovered);
  EXPECT_GT(phy.chip_jams(), 0u);
}

TEST(DndpOverChipPhy, AgreesWithAbstractPhyAcrossSeeds) {
  // For each seed, run the same pair over both planes under the same
  // deterministic jam policy (none / reactive-everything). Outcomes must
  // match exactly.
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    ChipWorld w_chip(seed);
    ChipWorld w_abs(seed);  // identical world
    const auto [a, b] = w_chip.pair_sharing(1);
    if (a == kInvalidNode) continue;

    adversary::NullJammer clean;
    Rng chip_rng(seed * 11);
    ChipPhy chip_phy(w_chip.params, w_chip.topology, clean, w_chip.codebook(), chip_rng);
    DndpEngine chip_engine(w_chip.params, chip_phy);
    const bool chip_outcome =
        chip_engine.run(w_chip.nodes[raw(a)], w_chip.nodes[raw(b)]).discovered;

    Rng abs_rng(seed * 13);
    AbstractPhy abs_phy(w_abs.topology, clean, abs_rng);
    DndpEngine abs_engine(w_abs.params, abs_phy);
    const bool abs_outcome =
        abs_engine.run(w_abs.nodes[raw(a)], w_abs.nodes[raw(b)]).discovered;

    EXPECT_EQ(chip_outcome, abs_outcome) << "seed " << seed;
    EXPECT_TRUE(chip_outcome);

    // And the derived session material agrees across planes (same nonce
    // streams feed both runs because the worlds are clones).
    if (chip_outcome && abs_outcome) {
      EXPECT_EQ(w_chip.nodes[raw(a)].neighbor(b)->session_code,
                w_abs.nodes[raw(a)].neighbor(b)->session_code);
    }
  }
}

TEST(DndpOverChipPhy, RevokedCodeIsNotUsedOnAir) {
  ChipWorld w(3);
  const auto [a, b] = w.pair_sharing(1);
  ASSERT_NE(a, kInvalidNode);
  // Revoke the shared codes at the receiver: its codebook shrinks and the
  // HELLO must fail to sync.
  NodeState& nb = w.nodes[raw(b)];
  for (const CodeId c :
       w.authority.assignment().shared_codes(a, b)) {
    for (std::uint32_t k = 0; k <= w.params.gamma; ++k) {
      (void)nb.revocation().report_invalid(c);
    }
  }
  adversary::NullJammer jammer;
  ChipPhy phy(w.params, w.topology, jammer, w.codebook(), w.phy_rng);
  DndpEngine engine(w.params, phy);
  const DndpResult result = engine.run(w.nodes[raw(a)], nb);
  EXPECT_FALSE(result.discovered);
}

}  // namespace
}  // namespace jrsnd::core
