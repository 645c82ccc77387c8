#include "core/secure_channel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "adversary/jammer.hpp"
#include "core/abstract_phy.hpp"
#include "core/chip_phy.hpp"
#include "core/dndp.hpp"
#include "sim/topology.hpp"

namespace jrsnd::core {
namespace {

struct ChannelWorld {
  Params params;
  predist::CodePoolAuthority authority;
  crypto::IbcAuthority ibc;
  sim::Field field{100.0, 100.0};
  sim::Topology topology;
  adversary::NullJammer jammer;
  Rng phy_rng{7};
  AbstractPhy phy;
  std::vector<NodeState> nodes;

  ChannelWorld()
      : params(make_params()),
        authority(params.predist(), Rng(1)),
        ibc(2),
        topology(field, {{10, 10}, {20, 10}, {90, 90}}, 30.0),
        phy(topology, jammer, phy_rng) {
    Rng node_rng(3);
    nodes = issue_nodes(authority, ibc, params.n, params.gamma, node_rng);
  }

  static Params make_params() {
    Params p = Params::defaults();
    p.n = 3;
    p.m = 3;
    p.l = 3;  // all nodes share the whole pool
    p.N = 64;
    return p;
  }

  void discover(std::uint32_t a, std::uint32_t b) {
    DndpEngine engine(params, phy);
    ASSERT_TRUE(engine.run(nodes[a], nodes[b]).discovered);
  }
};

TEST(SecureChannel, RequiresDiscoveryFirst) {
  ChannelWorld w;
  EXPECT_THROW(SecureChannel(w.nodes[0], w.nodes[1], w.phy), std::invalid_argument);
}

TEST(SecureChannel, DuplexTextDelivery) {
  ChannelWorld w;
  w.discover(0, 1);
  SecureChannel channel(w.nodes[0], w.nodes[1], w.phy);
  const auto at_b = channel.send_text(node_id(0), "hello from A");
  ASSERT_TRUE(at_b.has_value());
  EXPECT_EQ(*at_b, "hello from A");
  const auto at_a = channel.send_text(node_id(1), "ack from B");
  ASSERT_TRUE(at_a.has_value());
  EXPECT_EQ(*at_a, "ack from B");
  EXPECT_EQ(channel.messages_sent(), 2u);
  EXPECT_EQ(channel.messages_accepted(), 2u);
  EXPECT_EQ(channel.messages_rejected(), 0u);
}

TEST(SecureChannel, ManyMessagesKeepFreshKeystreams) {
  ChannelWorld w;
  w.discover(0, 1);
  SecureChannel channel(w.nodes[0], w.nodes[1], w.phy);
  for (int i = 0; i < 50; ++i) {
    const std::string text = "msg " + std::to_string(i);
    const auto rx = channel.send_text(node_id(0), text);
    ASSERT_TRUE(rx.has_value());
    EXPECT_EQ(*rx, text);
  }
  EXPECT_EQ(channel.messages_accepted(), 50u);
}

TEST(SecureChannel, NonEndpointSenderRejected) {
  ChannelWorld w;
  w.discover(0, 1);
  SecureChannel channel(w.nodes[0], w.nodes[1], w.phy);
  EXPECT_THROW((void)channel.send_text(node_id(2), "hi"), std::invalid_argument);
}

TEST(SecureChannel, OutOfRangePeerLosesTraffic) {
  ChannelWorld w;
  w.discover(0, 1);
  SecureChannel channel(w.nodes[0], w.nodes[1], w.phy);
  // Rebuild a sparser topology where 0 and 1 are out of range and send over
  // a PHY bound to it: the air swallows the message, the seal never fires.
  const sim::Topology sparse(w.field, {{10, 10}, {20, 10}, {90, 90}}, 5.0);
  AbstractPhy far_phy(sparse, w.jammer, w.phy_rng);
  SecureChannel far(w.nodes[0], w.nodes[1], far_phy);
  EXPECT_FALSE(far.send_text(node_id(0), "lost").has_value());
  EXPECT_EQ(far.messages_rejected(), 0u);
}

/// Tampering PHY: flips a ciphertext bit in flight.
class BitFlipPhy final : public PhyModel {
 public:
  explicit BitFlipPhy(PhyModel& inner) : inner_(inner) {}
  void begin_subsession(NodeId a, NodeId b, CodeId code) override {
    inner_.begin_subsession(a, b, code);
  }
  std::optional<BitVector> transmit(NodeId from, NodeId to, TxCode code, TxClass cls,
                                    const BitVector& payload) override {
    auto rx = inner_.transmit(from, to, code, cls, payload);
    if (rx.has_value() && cls == TxClass::SessionUnicast) rx->flip(70);  // ciphertext area
    return rx;
  }

 private:
  PhyModel& inner_;
};

TEST(SecureChannel, InFlightTamperingIsRejected) {
  ChannelWorld w;
  w.discover(0, 1);
  BitFlipPhy tamper(w.phy);
  SecureChannel channel(w.nodes[0], w.nodes[1], tamper);
  EXPECT_FALSE(channel.send_text(node_id(0), "integrity please").has_value());
  EXPECT_EQ(channel.messages_rejected(), 1u);
}


TEST(SecureChannel, RekeyRatchetsAndTrafficContinues) {
  ChannelWorld w;
  w.discover(0, 1);
  SecureChannel channel(w.nodes[0], w.nodes[1], w.phy);
  ASSERT_TRUE(channel.send_text(node_id(0), "gen0").has_value());
  EXPECT_EQ(channel.generation(), 0u);
  channel.rekey();
  EXPECT_EQ(channel.generation(), 1u);
  const auto rx = channel.send_text(node_id(0), "gen1");
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, "gen1");
  const auto back = channel.send_text(node_id(1), "gen1-reply");
  ASSERT_TRUE(back.has_value());
  channel.rekey();
  EXPECT_EQ(channel.generation(), 2u);
  EXPECT_TRUE(channel.send_text(node_id(0), "gen2").has_value());
  EXPECT_EQ(channel.messages_rejected(), 0u);
}

TEST(SecureChannel, OldGenerationTrafficRejectedAfterRekey) {
  // Capture a generation-0 sealed frame, rekey, replay it: the new
  // unsealer's keys differ, so the tag check fails.
  ChannelWorld w;
  w.discover(0, 1);

  class CapturePhy final : public PhyModel {
   public:
    explicit CapturePhy(PhyModel& inner) : inner_(inner) {}
    void begin_subsession(NodeId a, NodeId b, CodeId code) override {
      inner_.begin_subsession(a, b, code);
    }
    std::optional<BitVector> transmit(NodeId from, NodeId to, TxCode code, TxClass cls,
                                      const BitVector& payload) override {
      auto rx = inner_.transmit(from, to, code, cls, payload);
      if (rx.has_value() && replay_next_ && cls == TxClass::SessionUnicast) {
        rx = captured_;  // substitute the stale frame
        replay_next_ = false;
      } else if (rx.has_value() && cls == TxClass::SessionUnicast) {
        captured_ = *rx;
      }
      return rx;
    }
    void arm_replay() { replay_next_ = true; }

   private:
    PhyModel& inner_;
    BitVector captured_;
    bool replay_next_ = false;
  };

  CapturePhy capture(w.phy);
  SecureChannel channel(w.nodes[0], w.nodes[1], capture);
  ASSERT_TRUE(channel.send_text(node_id(0), "stale secret").has_value());
  channel.rekey();
  capture.arm_replay();
  EXPECT_FALSE(channel.send_text(node_id(0), "fresh").has_value());
  EXPECT_EQ(channel.messages_rejected(), 1u);
}

TEST(SecureChannel, WorksOverChipLevelPhy) {
  // End to end at chip granularity: seal -> spread with the session code ->
  // channel -> sync -> despread -> errata decode -> unseal.
  ChannelWorld w;
  w.discover(0, 1);
  Rng chip_rng(11);
  dsss::NodeCodebookCache code_cache;
  ChipPhy chip_phy(w.params, w.topology, w.jammer, usable_codebook(w.nodes, code_cache),
                   chip_rng);
  SecureChannel channel(w.nodes[0], w.nodes[1], chip_phy);
  const auto rx = channel.send_text(node_id(0), "chips all the way down");
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, "chips all the way down");
}

}  // namespace
}  // namespace jrsnd::core
