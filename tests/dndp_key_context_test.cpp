// Security properties of the D-NDP engine's per-end key contexts. Each end
// derives its pairwise key once per pair and reuses its schedule for its own
// AUTH MAC and for verifying the frame it receives; a sender ID forged in
// flight must still be verified under the receiver's own derivation for the
// claimed ID — and rejected — whether or not that end's slot is warm.
#include <gtest/gtest.h>

#include <string_view>

#include "jrsnd.hpp"

namespace jrsnd::core {
namespace {

/// Delivers through `inner`, then (while armed) rewrites the l_id-bit sender
/// field of every delivered AUTH frame the initiator sends (AUTH1) to
/// `forged`. Counts the AUTH frames that reach their receiver.
class SenderRewritePhy final : public PhyModel {
 public:
  SenderRewritePhy(PhyModel& inner, const WireConfig& wire) : inner_(inner), wire_(wire) {}

  void arm(NodeId initiator, NodeId forged) {
    initiator_ = initiator;
    forged_ = forged;
  }
  void disarm() { initiator_ = kInvalidNode; }

  void begin_subsession(NodeId a, NodeId b, CodeId code) override {
    inner_.begin_subsession(a, b, code);
  }

  std::optional<BitVector> transmit(NodeId from, NodeId to, TxCode code, TxClass cls,
                                    const BitVector& payload) override {
    std::optional<BitVector> rx = inner_.transmit(from, to, code, cls, payload);
    if (!rx || cls != TxClass::Auth) return rx;
    ++auth_delivered;
    if (from == initiator_) {
      for (std::uint32_t i = 0; i < wire_.l_id; ++i) {
        rx->set(wire_.l_t + i, ((raw(forged_) >> (wire_.l_id - 1 - i)) & 1u) != 0);
      }
      const std::optional<AuthMessage> forged = AuthMessage::decode(*rx, wire_);
      EXPECT_TRUE(forged.has_value() && forged->sender == forged_);
      ++rewritten;
    }
    return rx;
  }

  std::uint64_t auth_delivered = 0;
  std::uint64_t rewritten = 0;

 private:
  PhyModel& inner_;
  WireConfig wire_;
  NodeId initiator_ = kInvalidNode;
  NodeId forged_ = kInvalidNode;
};

/// Three mutually in-range honest nodes holding the same three codes, so
/// every pair runs three sub-sessions on a clean channel.
struct KeyContextWorld {
  Params params = make_params();
  predist::CodePoolAuthority authority{params.predist(), Rng(1)};
  crypto::IbcAuthority ibc{2};
  sim::Field field{100.0, 100.0};
  sim::Topology topology{field, {{10, 10}, {20, 10}, {30, 10}}, 50.0};
  adversary::NullJammer jammer;
  Rng phy_rng{5};
  AbstractPhy clean{topology, jammer, phy_rng};
  SenderRewritePhy phy{clean, wire()};
  std::vector<NodeState> nodes;

  KeyContextWorld() {
    Rng node_rng(3);
    nodes = issue_nodes(authority, ibc, params.n, params.gamma, node_rng);
  }

  static Params make_params() {
    Params p = Params::defaults();
    p.n = 3;
    p.m = 3;
    p.l = 3;
    p.N = 64;
    return p;
  }

  [[nodiscard]] WireConfig wire() const {
    WireConfig w;
    w.l_t = params.l_t;
    w.l_id = params.l_id;
    w.l_n = params.l_n;
    w.l_mac = params.l_mac;
    return w;
  }
};

std::uint64_t counter(std::string_view name) {
  for (const auto& c : obs::registry().snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Runs `engine` on (a, b) with AUTH1's sender rewritten to `forged` and
/// checks the full rejection contract.
void expect_forged_auth1_rejected(KeyContextWorld& w, DndpEngine& engine, std::uint32_t a,
                                  std::uint32_t b, std::uint32_t forged) {
  obs::set_metrics_enabled(true);
  obs::registry().reset();
  w.phy.auth_delivered = 0;
  w.phy.rewritten = 0;
  w.phy.arm(node_id(a), node_id(forged));
  const DndpResult result = engine.run(w.nodes[a], w.nodes[b]);
  w.phy.disarm();
  const std::uint64_t frames = counter("crypto.verify.frames");
  const std::uint64_t rejected_mac = counter("crypto.reject.mac");
  const std::uint64_t accepted = counter("crypto.verify.accepted");
  obs::set_metrics_enabled(false);

  ASSERT_EQ(result.shared_codes, 3u);
  ASSERT_GT(w.phy.rewritten, 0u);
  EXPECT_FALSE(result.discovered);
  EXPECT_TRUE(result.mac_failure);
  EXPECT_EQ(result.subsessions_completed, 0u);
  // Every delivered AUTH frame was verified exactly once, and each was a
  // rewritten AUTH1 that reached the MAC stage and failed it there.
  EXPECT_EQ(frames, w.phy.auth_delivered);
  EXPECT_EQ(w.phy.auth_delivered, w.phy.rewritten);
  EXPECT_EQ(rejected_mac, w.phy.rewritten);
  EXPECT_EQ(accepted, 0u);
  for (const std::uint32_t x : {a, b, forged}) {
    for (const std::uint32_t y : {a, b, forged}) {
      if (x != y) {
        EXPECT_EQ(w.nodes[x].neighbor(node_id(y)), nullptr) << x << " knows " << y;
      }
    }
  }
}

TEST(DndpKeyContext, ForgedAuth1SenderIsRejectedAtTheMac) {
  KeyContextWorld w;
  DndpEngine engine(w.params, w.phy);
  // A = 0 sends AUTH1 under K_01; in flight it claims to come from node 2,
  // so B = 1 verifies it under its own K_12 for the claimed sender.
  expect_forged_auth1_rejected(w, engine, 0, 1, 2);
}

TEST(DndpKeyContext, ForgedSenderMatchingAWarmSlotIsStillRejected) {
  KeyContextWorld w;
  DndpEngine engine(w.params, w.phy);
  // An honest run of (1, 2) leaves both end slots holding K_12; forget the
  // resulting neighbors so the check below sees only the forged run.
  ASSERT_TRUE(engine.run(w.nodes[1], w.nodes[2]).discovered);
  w.nodes[1].remove_logical_neighbor(node_id(2));
  w.nodes[2].remove_logical_neighbor(node_id(1));
  // Now 0 initiates with 1 and its AUTH1 is rewritten to claim node 2: B's
  // warm slot is exactly the key for that claim, and the MAC — computed by
  // node 0 under K_01 over its own ID — must still fail under it.
  expect_forged_auth1_rejected(w, engine, 0, 1, 2);
}

TEST(DndpKeyContext, CapturedKeyUnderFalseIdentityIsRejectedByTheResponder) {
  // Mallory holds node 2's key but claims to be node 1. Her AUTH1 is MACed
  // under K_20; node 0 must reject it itself, under its own derivation for
  // the claimed ID (K_01) — never under the key Mallory's end derived. The
  // initiator's check of AUTH2 would also fail, so assert the rejection
  // happens at the responder: no AUTH frame is ever accepted.
  KeyContextWorld w;
  Rng mallory_rng(9);
  NodeState mallory(node_id(1), w.ibc.issue(node_id(2)),
                    w.authority.assignment().codes_of(node_id(2)), w.authority, w.params.gamma,
                    mallory_rng);
  DndpEngine engine(w.params, w.phy);
  obs::set_metrics_enabled(true);
  obs::registry().reset();
  const DndpResult result = engine.run(mallory, w.nodes[0]);
  const std::uint64_t frames = counter("crypto.verify.frames");
  const std::uint64_t rejected_mac = counter("crypto.reject.mac");
  const std::uint64_t accepted = counter("crypto.verify.accepted");
  obs::set_metrics_enabled(false);

  EXPECT_FALSE(result.discovered);
  EXPECT_TRUE(result.mac_failure);
  ASSERT_GT(w.phy.auth_delivered, 0u);
  EXPECT_EQ(frames, w.phy.auth_delivered);
  EXPECT_EQ(rejected_mac, w.phy.auth_delivered);
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(w.nodes[0].neighbor(node_id(1)), nullptr);
}

}  // namespace
}  // namespace jrsnd::core
