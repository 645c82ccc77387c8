#include <gtest/gtest.h>

#include <stdexcept>

#include "oracle/fhss_reference.hpp"

namespace jrsnd::oracle {
namespace {

TEST(HopSequence, RandomSequencesDifferBySeed) {
  const RandomHopSequence a(1, 50);
  const RandomHopSequence b(2, 50);
  int same = 0;
  for (std::uint64_t t = 0; t < 500; ++t) same += a.channel(t) == b.channel(t);
  EXPECT_LT(same, 30);  // ~1/50 expected
  EXPECT_EQ(RandomHopSequence(1, 50).channel(17), a.channel(17));
}

TEST(HopSequence, RejectsZeroChannels) {
  EXPECT_THROW(RandomHopSequence(1, 0), std::invalid_argument);
}

TEST(FhssChannel, CleanDeliveryAndSilence) {
  FhssChannel medium(10);
  medium.begin_slot();
  medium.transmit(0, 3, 42);
  EXPECT_EQ(medium.listen(3), 42u);
  EXPECT_FALSE(medium.listen(4).has_value());
}

TEST(FhssChannel, CollisionDestroysBoth) {
  FhssChannel medium(10);
  medium.begin_slot();
  medium.transmit(0, 3, 42);
  medium.transmit(1, 3, 43);
  EXPECT_FALSE(medium.listen(3).has_value());
}

TEST(FhssChannel, JammingDestroysTransmission) {
  FhssChannel medium(10);
  medium.begin_slot();
  medium.transmit(0, 3, 42);
  medium.jam(3);
  EXPECT_FALSE(medium.listen(3).has_value());
  EXPECT_EQ(medium.jammed_channels_this_slot(), 1u);
}

TEST(FhssChannel, BeginSlotClearsState) {
  FhssChannel medium(10);
  medium.begin_slot();
  medium.transmit(0, 3, 42);
  medium.jam(5);
  medium.begin_slot();
  EXPECT_FALSE(medium.listen(3).has_value());
  EXPECT_EQ(medium.transmissions_this_slot(), 0u);
  EXPECT_EQ(medium.jammed_channels_this_slot(), 0u);
}

TEST(FhssChannel, JamRandomCoversDistinctChannels) {
  FhssChannel medium(20);
  Rng rng(1);
  medium.begin_slot();
  medium.jam_random(10, rng);
  EXPECT_EQ(medium.jammed_channels_this_slot(), 10u);
  medium.begin_slot();
  medium.jam_random(100, rng);  // over-request saturates
  EXPECT_EQ(medium.jammed_channels_this_slot(), 20u);
}

TEST(FhssChannel, BoundsChecked) {
  FhssChannel medium(4);
  medium.begin_slot();
  EXPECT_THROW(medium.transmit(0, 4, 1), std::out_of_range);
  EXPECT_THROW(medium.jam(4), std::out_of_range);
}

TEST(UfhChannelExchange, TransfersAndMatchesSlotModel) {
  // The channel-level exchange must reproduce the slot-probability model's
  // expected transfer time (same validation pattern as ChipPhy vs
  // AbstractPhy).
  baselines::UfhParams p;
  p.channels = 25;
  p.jammed_channels = 3;
  p.fragments = 4;
  Rng rng(5);
  BitVector msg(256);
  for (std::size_t i = 0; i < 256; ++i) msg.set(i, rng.bernoulli(0.5));
  const baselines::UfhFragmentChain chain(p, msg);

  UfhChannelExchange channel_level(p, rng);
  baselines::UfhExchange slot_level(p, rng);

  double channel_slots = 0.0;
  double slot_slots = 0.0;
  constexpr int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    const auto cr = channel_level.run(chain);
    ASSERT_TRUE(cr.reassembled);
    channel_slots += static_cast<double>(cr.slots);
    const auto sr = slot_level.run(chain);
    ASSERT_TRUE(sr.reassembled);
    slot_slots += static_cast<double>(sr.slots);
  }
  channel_slots /= kTrials;
  slot_slots /= kTrials;
  EXPECT_NEAR(channel_slots / slot_slots, 1.0, 0.30);
}

TEST(UfhChannelExchange, RejectsOverwhelmedChannels) {
  baselines::UfhParams p;
  p.channels = 8;
  p.jammed_channels = 8;
  Rng rng(6);
  EXPECT_THROW(UfhChannelExchange(p, rng), std::invalid_argument);
}

}  // namespace
}  // namespace jrsnd::oracle
