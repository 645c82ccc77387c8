#include "core/mndp.hpp"

#include <gtest/gtest.h>

#include "adversary/jammer.hpp"
#include "core/abstract_phy.hpp"
#include "crypto/session_code.hpp"

namespace jrsnd::core {
namespace {

// A hand-built world with explicit positions and explicit logical links, so
// every M-NDP path decision is fully controlled.
struct MndpWorld {
  Params params;
  predist::CodePoolAuthority authority;
  crypto::IbcAuthority ibc;
  sim::Field field;
  sim::Topology topology;
  adversary::NullJammer jammer;
  Rng phy_rng;
  AbstractPhy phy;
  std::vector<NodeState> nodes;
  Rng nonce_rng;

  MndpWorld(std::vector<sim::Position> positions, double range, std::uint64_t seed = 1)
      : params(make_params(static_cast<std::uint32_t>(positions.size()))),
        authority(params.predist(), Rng(seed)),
        ibc(seed + 1),
        field(params.field_width, params.field_height),
        topology(field, std::move(positions), range),
        phy_rng(seed + 2),
        phy(topology, jammer, phy_rng),
        nonce_rng(seed + 3) {
    Rng node_rng(seed + 4);
    nodes = issue_nodes(authority, ibc, params.n, params.gamma, node_rng);
  }

  static Params make_params(std::uint32_t n) {
    Params p = Params::defaults();
    p.n = n;
    p.m = 4;
    p.l = std::max(2u, n / 2);
    p.N = 64;
    p.field_width = 1000.0;
    p.field_height = 1000.0;
    return p;
  }

  /// Establishes a D-NDP-grade logical link between a and b directly.
  void link(std::uint32_t ia, std::uint32_t ib) {
    const NodeId a = node_id(ia);
    const NodeId b = node_id(ib);
    const crypto::SymmetricKey key = nodes[ia].key().shared_key(b);
    BitVector na(params.l_n);
    BitVector nb(params.l_n);
    for (std::uint32_t i = 0; i < params.l_n; ++i) {
      na.set(i, nonce_rng.bernoulli(0.5));
      nb.set(i, nonce_rng.bernoulli(0.5));
    }
    const BitVector code = crypto::derive_session_code(key, na, nb, params.N);
    nodes[ia].add_logical_neighbor(b, LogicalNeighbor{key, code, false});
    nodes[ib].add_logical_neighbor(a, LogicalNeighbor{key, code, false});
  }

  MndpEngine make_engine(bool gps_filter = false) {
    return MndpEngine(params, phy, topology, ibc.oracle(), gps_filter);
  }
};

TEST(Mndp, TwoHopDiscoveryViaCommonNeighbor) {
  // A(0) - C(2) - B(1); A and B physical neighbors but not logical.
  MndpWorld w({{100, 100}, {200, 100}, {150, 100}}, 150.0);
  ASSERT_TRUE(w.topology.are_neighbors(node_id(0), node_id(1)));
  w.link(0, 2);
  w.link(1, 2);

  MndpEngine engine = w.make_engine();
  const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));

  EXPECT_EQ(stats.discoveries, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
  EXPECT_GT(stats.signature_verifications, 0u);
  ASSERT_NE(w.nodes[0].neighbor(node_id(1)), nullptr);
  ASSERT_NE(w.nodes[1].neighbor(node_id(0)), nullptr);
  EXPECT_TRUE(w.nodes[0].neighbor(node_id(1))->via_mndp);
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1))->session_code,
            w.nodes[1].neighbor(node_id(0))->session_code);
}

TEST(Mndp, NoLogicalNeighborsNoRequests) {
  MndpWorld w({{100, 100}, {200, 100}, {150, 100}}, 150.0);
  MndpEngine engine = w.make_engine();
  const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
  EXPECT_EQ(stats.requests_sent, 0u);
  EXPECT_EQ(stats.discoveries, 0u);
}

TEST(Mndp, AlreadyLogicalNeighborsDoNotRespond) {
  MndpWorld w({{100, 100}, {200, 100}, {150, 100}}, 150.0);
  w.link(0, 2);
  w.link(1, 2);
  w.link(0, 1);  // A and B already know each other
  MndpEngine engine = w.make_engine();
  const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
  EXPECT_EQ(stats.responses_sent, 0u);
  EXPECT_EQ(stats.discoveries, 0u);
}

TEST(Mndp, HopLimitIsEnforced) {
  // Square: A(0,0), B(60,0), C(0,80), D(60,80) with range 100. Physical:
  // A-B, A-C, C-D, D-B (diagonals are exactly 100, i.e. out of range).
  // Logical chain A-C-D-B: reaching B needs 3 hops.
  MndpWorld w({{0, 0}, {60, 0}, {0, 80}, {60, 80}}, 100.0, 2);
  ASSERT_TRUE(w.topology.are_neighbors(node_id(0), node_id(1)));
  w.link(0, 2);
  w.link(2, 3);
  w.link(3, 1);

  w.params.nu = 2;
  {
    MndpEngine engine = w.make_engine();
    const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
    EXPECT_EQ(stats.discoveries, 0u);
    EXPECT_LE(stats.max_hops_seen, 2u);
  }
  w.params.nu = 3;
  {
    MndpEngine engine = w.make_engine();
    const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
    EXPECT_EQ(stats.discoveries, 1u);
    EXPECT_NE(w.nodes[0].neighbor(node_id(1)), nullptr);
  }
}

TEST(Mndp, NonPhysicalResponderIsFalsePositiveCost) {
  // G(1) is 2 logical hops from A (via C) and physically adjacent to C but
  // not to A: it responds (cost) but its session-code HELLO cannot reach A,
  // so no table corruption.
  MndpWorld w({{100, 100}, {280, 100}, {150, 100}}, 150.0, 3);
  ASSERT_FALSE(w.topology.are_neighbors(node_id(0), node_id(1)));
  ASSERT_TRUE(w.topology.are_neighbors(node_id(1), node_id(2)));
  w.link(0, 2);
  w.link(1, 2);

  MndpEngine engine = w.make_engine(/*gps_filter=*/false);
  const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
  EXPECT_EQ(stats.false_positive_responses, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
  EXPECT_EQ(stats.discoveries, 0u);
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1)), nullptr);
  EXPECT_EQ(w.nodes[1].neighbor(node_id(0)), nullptr);
}

TEST(Mndp, GpsFilterSuppressesFalsePositiveResponses) {
  MndpWorld w({{100, 100}, {280, 100}, {150, 100}}, 150.0, 4);
  w.link(0, 2);
  w.link(1, 2);
  MndpEngine engine = w.make_engine(/*gps_filter=*/true);
  const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
  EXPECT_EQ(stats.false_positive_responses, 0u);
  EXPECT_EQ(stats.responses_sent, 0u);
}

TEST(Mndp, SignatureVerificationCountsScaleWithPath) {
  // Request A->C carries 1 signature; C->B carries 2; response B->C 1,
  // C->A 2. Expect at least 6 verifications for the 2-hop discovery.
  MndpWorld w({{100, 100}, {200, 100}, {150, 100}}, 150.0, 5);
  w.link(0, 2);
  w.link(1, 2);
  MndpEngine engine = w.make_engine();
  const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
  EXPECT_GE(stats.signature_verifications, 6u);
  EXPECT_GE(stats.signatures_created, 3u);  // A's request, C's hop, B's response
}

TEST(Mndp, RunRoundDiscoversSymmetrically) {
  // Two disjoint gaps: (0,1) via 2 and (3,4) via 5.
  MndpWorld w({{100, 100}, {200, 100}, {150, 100},
               {700, 700}, {800, 700}, {750, 700}},
              150.0, 6);
  w.link(0, 2);
  w.link(1, 2);
  w.link(3, 5);
  w.link(4, 5);
  MndpEngine engine = w.make_engine();
  Rng order_rng(1);
  const MndpStats stats = engine.run_round(std::span<NodeState>(w.nodes), order_rng);
  EXPECT_EQ(stats.discoveries, 2u);
  EXPECT_NE(w.nodes[0].neighbor(node_id(1)), nullptr);
  EXPECT_NE(w.nodes[3].neighbor(node_id(4)), nullptr);
}


TEST(Mndp, NuOneNeverDiscoversAnything) {
  // With nu = 1 the request reaches only direct logical neighbors, who all
  // already know the source: no responses, no forwards.
  MndpWorld w({{100, 100}, {200, 100}, {150, 100}}, 150.0, 9);
  w.link(0, 2);
  w.link(1, 2);
  w.params.nu = 1;
  MndpEngine engine = w.make_engine();
  const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
  EXPECT_EQ(stats.requests_sent, 1u);  // A -> C only
  EXPECT_EQ(stats.responses_sent, 0u);
  EXPECT_EQ(stats.discoveries, 0u);
  EXPECT_LE(stats.max_hops_seen, 1u);
}

TEST(Mndp, ExpiredIntermediateLinkKillsDelivery) {
  // If C dropped its link to B (mobility timeout) after advertising it,
  // the forward simply fails at the session unicast; no crash, no table
  // corruption.
  MndpWorld w({{100, 100}, {200, 100}, {150, 100}}, 150.0, 10);
  w.link(0, 2);
  w.link(1, 2);
  w.nodes[2].remove_logical_neighbor(node_id(1));  // C's side only
  MndpEngine engine = w.make_engine();
  const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
  EXPECT_EQ(stats.discoveries, 0u);
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1)), nullptr);
}

/// A PHY wrapper that corrupts a signature bit inside M-NDP requests.
class SignatureTamperPhy final : public PhyModel {
 public:
  explicit SignatureTamperPhy(PhyModel& inner) : inner_(inner) {}
  void begin_subsession(NodeId a, NodeId b, CodeId code) override {
    inner_.begin_subsession(a, b, code);
  }
  std::optional<BitVector> transmit(NodeId from, NodeId to, TxCode code, TxClass cls,
                                    const BitVector& payload) override {
    auto rx = inner_.transmit(from, to, code, cls, payload);
    if (rx.has_value() && cls == TxClass::SessionUnicast) {
      rx->flip(100);  // inside the source signature's 256-bit tag
    }
    return rx;
  }

 private:
  PhyModel& inner_;
};

TEST(Mndp, TamperedRequestsAreDropped) {
  MndpWorld w({{100, 100}, {200, 100}, {150, 100}}, 150.0, 7);
  w.link(0, 2);
  w.link(1, 2);
  SignatureTamperPhy tamper(w.phy);
  MndpEngine engine(w.params, tamper, w.topology, w.ibc.oracle(), false);
  const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
  EXPECT_EQ(stats.discoveries, 0u);
  EXPECT_GT(stats.requests_dropped, 0u);
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1)), nullptr);
}

TEST(Mndp, DuplicateSuppressionAcrossPaths) {
  // Diamond: A(0) links C(2) and D(3); both link B(1). B must process the
  // request once and respond once.
  MndpWorld w({{100, 100}, {200, 100}, {150, 80}, {150, 120}}, 200.0, 8);
  w.link(0, 2);
  w.link(0, 3);
  w.link(1, 2);
  w.link(1, 3);
  MndpEngine engine = w.make_engine();
  const MndpStats stats = engine.initiate(w.nodes[0], std::span<NodeState>(w.nodes));
  EXPECT_EQ(stats.responses_sent, 1u);
  EXPECT_EQ(stats.discoveries, 1u);
}

}  // namespace
}  // namespace jrsnd::core
