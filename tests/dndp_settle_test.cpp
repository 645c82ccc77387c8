// The D-NDP engine settles each delivered AUTH frame once per pair: a later
// sub-session whose frame repeats, bit for bit and under the same pinned
// key, the one that direction last verified reuses its verdict. A frame
// that differs in a single bit must still be verified in full, rejected at
// the MAC and counted, while the pair is discovered through the sub-sessions
// that delivered it intact.
#include <gtest/gtest.h>

#include <string_view>

#include "jrsnd.hpp"

namespace jrsnd::core {
namespace {

/// Delivers through `inner` and flips the first MAC bit of the AUTH frame
/// `flip_from` sends, in the pair's `flip_subsession`-th sub-session only.
/// Counts the AUTH frames that reach their receiver.
class SubsessionBitFlipPhy final : public PhyModel {
 public:
  SubsessionBitFlipPhy(PhyModel& inner, const WireConfig& wire) : inner_(inner), wire_(wire) {}

  void arm(NodeId flip_from, std::uint32_t flip_subsession) {
    flip_from_ = flip_from;
    flip_subsession_ = flip_subsession;
    subsession_ = 0;
  }

  void begin_subsession(NodeId a, NodeId b, CodeId code) override {
    ++subsession_;
    inner_.begin_subsession(a, b, code);
  }

  std::optional<BitVector> transmit(NodeId from, NodeId to, TxCode code, TxClass cls,
                                    const BitVector& payload) override {
    std::optional<BitVector> rx = inner_.transmit(from, to, code, cls, payload);
    if (!rx || cls != TxClass::Auth) return rx;
    ++auth_delivered;
    if (from == flip_from_ && subsession_ == flip_subsession_) {
      const std::size_t mac_bit = std::size_t{wire_.l_t} + wire_.l_id + wire_.l_n;
      rx->set(mac_bit, !rx->get(mac_bit));
      ++flipped;
    }
    return rx;
  }

  std::uint64_t auth_delivered = 0;
  std::uint64_t flipped = 0;

 private:
  PhyModel& inner_;
  WireConfig wire_;
  NodeId flip_from_ = kInvalidNode;
  std::uint32_t flip_subsession_ = 0;
  std::uint32_t subsession_ = 0;
};

/// Two in-range honest nodes holding the same three codes, so the pair runs
/// three sub-sessions on a clean channel.
struct SettleWorld {
  Params params = make_params();
  predist::CodePoolAuthority authority{params.predist(), Rng(1)};
  crypto::IbcAuthority ibc{2};
  sim::Field field{100.0, 100.0};
  sim::Topology topology{field, {{10, 10}, {20, 10}}, 50.0};
  adversary::NullJammer jammer;
  Rng phy_rng{5};
  AbstractPhy clean{topology, jammer, phy_rng};
  SubsessionBitFlipPhy phy{clean, params.wire()};
  std::vector<NodeState> nodes;

  SettleWorld() {
    Rng node_rng(3);
    nodes = issue_nodes(authority, ibc, params.n, params.gamma, node_rng);
  }

  static Params make_params() {
    Params p = Params::defaults();
    p.n = 2;
    p.m = 3;
    p.l = 2;
    p.N = 64;
    return p;
  }
};

std::uint64_t counter(const obs::MetricsRegistry& registry, std::string_view name) {
  for (const obs::CounterSample& c : registry.snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Runs 0 -> 1 with `flip_from`'s AUTH frame flipped in sub-session 2, and
/// checks that the flipped frame alone was rejected, at the MAC, and counted.
void expect_flip_rejected_in_subsession_two(std::uint32_t flip_from,
                                            std::uint64_t frames_expected) {
  SettleWorld w;
  DndpEngine engine(w.params, w.phy);
  // A first, clean pair leaves the engine warm: its end slots, settled
  // frames and counts must not leak into the next pair.
  ASSERT_TRUE(engine.run(w.nodes[1], w.nodes[0]).discovered);
  w.nodes[0].remove_logical_neighbor(node_id(1));
  w.nodes[1].remove_logical_neighbor(node_id(0));

  obs::MetricsRegistry scratch;
  const obs::ScopedMetricsRegistry scope(&scratch);
  obs::set_metrics_enabled(true);
  w.phy.auth_delivered = 0;
  w.phy.arm(node_id(flip_from), 2);
  const DndpResult result = engine.run(w.nodes[0], w.nodes[1]);
  obs::set_metrics_enabled(false);

  ASSERT_EQ(result.shared_codes, 3u);
  ASSERT_EQ(w.phy.flipped, 1u);
  EXPECT_TRUE(result.discovered);
  EXPECT_TRUE(result.mac_failure);
  EXPECT_EQ(result.subsessions_completed, 2u);  // sub-sessions 1 and 3
  EXPECT_EQ(w.phy.auth_delivered, frames_expected);
  EXPECT_EQ(counter(scratch, "crypto.verify.frames"), frames_expected);
  EXPECT_EQ(counter(scratch, "crypto.reject.mac"), 1u);
  EXPECT_EQ(counter(scratch, "crypto.verify.accepted"), frames_expected - 1);
  EXPECT_EQ(counter(scratch, "dndp.mac_failures"), 1u);
  const LogicalNeighbor* at_0 = w.nodes[0].neighbor(node_id(1));
  const LogicalNeighbor* at_1 = w.nodes[1].neighbor(node_id(0));
  ASSERT_NE(at_0, nullptr);
  ASSERT_NE(at_1, nullptr);
  EXPECT_EQ(at_0->session_code, at_1->session_code);
}

TEST(DndpSettle, Auth1FlippedOnlyInSubsessionTwoIsRejectedAtTheMac) {
  // Sub-sessions 1 and 3 deliver AUTH1 and AUTH2; sub-session 2 stops at
  // its rejected AUTH1.
  expect_flip_rejected_in_subsession_two(0, 5);
}

TEST(DndpSettle, Auth2FlippedOnlyInSubsessionTwoIsRejectedAtTheMac) {
  // Every sub-session delivers both frames; only sub-session 2's AUTH2 fails.
  expect_flip_rejected_in_subsession_two(1, 6);
}

}  // namespace
}  // namespace jrsnd::core
