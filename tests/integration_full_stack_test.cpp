// The whole system in one story, at chip granularity where it matters:
//
//   provisioning blobs -> D-NDP handshakes over the real DSSS pipeline ->
//   a pair whose shared codes are revoked falls back to M-NDP through the
//   logical graph (signature chains over session-code unicasts, final
//   session-code HELLO/CONFIRM) -> the recovered pair runs an encrypted,
//   authenticated secure channel over its fresh session code.
#include <gtest/gtest.h>

#include "jrsnd.hpp"

namespace jrsnd {
namespace {

struct FullStack {
  core::Params params;
  predist::CodePoolAuthority authority;
  crypto::IbcAuthority ibc;
  sim::Field field{1000.0, 1000.0};
  sim::Topology topology;
  adversary::NullJammer clean;
  Rng phy_rng{11};
  dsss::NodeCodebookCache code_cache;
  std::vector<core::NodeState> nodes;  // read by phy's codebook on every transmit
  core::ChipPhy phy;

  FullStack()
      : params(make_params()),
        authority(params.predist(), Rng(1)),
        ibc(2),
        // The square of core_mndp_test: A(0,0) B(60,0) C(0,80) D(60,80),
        // range 100: diagonals out of range.
        topology(field, {{0, 0}, {60, 0}, {0, 80}, {60, 80}}, 100.0),
        phy(params, topology, clean, core::usable_codebook(nodes, code_cache), phy_rng) {
    Rng node_rng(3);
    nodes = core::issue_nodes(authority, ibc, params.n, params.gamma, node_rng);
  }

  static core::Params make_params() {
    core::Params p = core::Params::defaults();
    p.n = 4;
    p.m = 3;
    p.l = 4;  // every code held by all 4 nodes: every pair shares codes
    p.N = 64;
    p.tau = 0.3;
    p.nu = 3;
    p.field_width = 1000.0;
    p.field_height = 1000.0;
    return p;
  }
};

TEST(FullStack, ProvisionDiscoverRecoverAndChat) {
  FullStack w;

  // --- 0. provisioning blobs flash-and-verify -----------------------------
  for (std::uint32_t i = 0; i < w.params.n; ++i) {
    const auto blob = predist::provision_node(w.authority, node_id(i));
    const auto parsed = predist::NodeProvisioning::parse(blob.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->code_ids, w.nodes[i].all_codes());
  }

  // --- 1. revoke A<->B's entire shared code set at node A, so the physical
  // pair (A, B) cannot run D-NDP and must go multi-hop.
  for (const CodeId c : w.authority.assignment().shared_codes(node_id(0), node_id(1))) {
    for (std::uint32_t k = 0; k <= w.params.gamma; ++k) {
      (void)w.nodes[0].revocation().report_invalid(c);
    }
  }
  EXPECT_TRUE(w.nodes[0].usable_codes().empty());

  // --- 2. D-NDP over the chip-accurate PHY on every physical pair ---------
  core::DndpEngine dndp(w.params, w.phy);
  std::size_t direct = 0;
  for (const auto& [a, b] : w.topology.pairs()) {
    direct += dndp.run(w.nodes[raw(a)], w.nodes[raw(b)]).discovered;
  }
  // A's codes are revoked: every pair touching A fails D-NDP; B-D and C-D
  // succeed. (Physical pairs: A-B, A-C, B-D, C-D.)
  EXPECT_EQ(direct, 2u);
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1)), nullptr);

  // --- 2b. restore A (the authority re-enables it with fresh state) so it
  // can at least talk to C over a still-secret code... except A revoked
  // everything. Rebuild A's state from its provisioning blob — the real
  // "re-flash the radio" workflow.
  {
    const auto blob = predist::provision_node(w.authority, node_id(0));
    const auto parsed = predist::NodeProvisioning::parse(blob.serialize());
    ASSERT_TRUE(parsed.has_value());
    Rng fresh_rng(77);
    w.nodes[0] = core::NodeState(node_id(0), w.ibc.issue(node_id(0)), parsed->code_ids,
                                 w.authority, w.params.gamma, fresh_rng);
  }
  // A-C now discovers directly (C's link to A was never established, so
  // run D-NDP again for pairs touching A except A-B, which we keep broken
  // by re-revoking the A-B shared codes only).
  for (const CodeId c : w.authority.assignment().shared_codes(node_id(0), node_id(1))) {
    for (std::uint32_t k = 0; k <= w.params.gamma; ++k) {
      (void)w.nodes[0].revocation().report_invalid(c);
    }
  }
  // l = n here, so ALL codes are shared with B; A is deaf again. The
  // realistic fallback is therefore M-NDP via C and D, using the links
  // C-D, D-B... but A has no links at all. Give A one secret: a direct
  // manual pairing with C (out-of-band field exchange), the bootstrap
  // anchor the paper's logical-path argument needs.
  {
    const crypto::SymmetricKey key = w.nodes[0].key().shared_key(node_id(2));
    BitVector na(w.params.l_n);
    BitVector nb(w.params.l_n);
    const BitVector code = crypto::derive_session_code(key, na, nb, w.params.N);
    w.nodes[0].add_logical_neighbor(node_id(2), core::LogicalNeighbor{key, code, false});
    w.nodes[2].add_logical_neighbor(node_id(0), core::LogicalNeighbor{key, code, false});
  }

  // --- 3. M-NDP over the chip PHY: A floods via C; D forwards; B responds;
  // the session-code HELLO crosses the real A-B link. -----------------------
  core::MndpEngine mndp(w.params, w.phy, w.topology, w.ibc.oracle(), /*gps=*/true);
  const core::MndpStats stats = mndp.initiate(w.nodes[0], std::span<core::NodeState>(w.nodes));
  EXPECT_GE(stats.signature_verifications, 4u);
  ASSERT_NE(w.nodes[0].neighbor(node_id(1)), nullptr) << "M-NDP should recover A-B";
  ASSERT_NE(w.nodes[1].neighbor(node_id(0)), nullptr);
  EXPECT_TRUE(w.nodes[0].neighbor(node_id(1))->via_mndp);

  // --- 4. encrypted traffic over the recovered link, still at chip level --
  core::SecureChannel channel(w.nodes[0], w.nodes[1], w.phy);
  const auto reply = channel.send_text(node_id(0), "recovered via multi-hop");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "recovered via multi-hop");
  const auto back = channel.send_text(node_id(1), "ack");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "ack");
}

}  // namespace
}  // namespace jrsnd
