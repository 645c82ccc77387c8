#include "dsss/chip_channel.hpp"

#include <gtest/gtest.h>

#include "adversary/jammer.hpp"
#include "dsss/spreader.hpp"
#include "oracle/dsss_reference.hpp"

namespace jrsnd::dsss {
namespace {

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

TEST(ChipChannel, SilentChannelIsRandomNoise) {
  const ChipChannel channel(4096);
  Rng rng(1);
  const BitVector rx = channel.receive(rng);
  const double ones = static_cast<double>(rx.popcount()) / 4096.0;
  EXPECT_GT(ones, 0.45);
  EXPECT_LT(ones, 0.55);
  for (const bool active : channel.active()) EXPECT_FALSE(active);
}

TEST(ChipChannel, SingleTransmissionReceivedVerbatim) {
  Rng rng(2);
  const BitVector chips = random_bits(rng, 500);
  ChipChannel channel(1000);
  channel.add(Transmission{100, chips});
  const BitVector rx = channel.receive(rng);
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(rx.get(100 + i), chips.get(i)) << "chip " << i;
  }
}

TEST(ChipChannel, TransmissionClippedAtWindowEnd) {
  Rng rng(3);
  const BitVector chips = random_bits(rng, 100);
  ChipChannel channel(120);
  channel.add(Transmission{50, chips});  // 30 chips fall off the end
  EXPECT_TRUE(channel.active()[119]);
  // Must not crash; soft sums only within window.
  EXPECT_EQ(channel.soft().size(), 120u);
}

TEST(ChipChannel, OpposedEqualPowerCancelsToNoise) {
  Rng rng(4);
  BitVector chips = random_bits(rng, 256);
  BitVector inverted = chips;
  for (std::size_t i = 0; i < 256; ++i) inverted.flip(i);
  ChipChannel channel(256);
  channel.add(Transmission{0, chips});
  channel.add(Transmission{0, inverted});
  for (const int s : channel.soft()) EXPECT_EQ(s, 0);
  // Receiver output over cancelled chips is coin flips.
  const BitVector rx = channel.receive(rng);
  const double ones = static_cast<double>(rx.popcount()) / 256.0;
  EXPECT_GT(ones, 0.3);
  EXPECT_LT(ones, 0.7);
}

TEST(ChipChannel, StrongerSignalDominates) {
  Rng rng(5);
  const BitVector victim = random_bits(rng, 256);
  BitVector jammer = victim;
  for (std::size_t i = 0; i < 256; ++i) jammer.flip(i);
  ChipChannel channel(256);
  channel.add(Transmission{0, victim});
  channel.add(Transmission{0, jammer});
  channel.add(Transmission{0, jammer});  // amplitude 2 beats amplitude 1
  const BitVector rx = channel.receive(rng);
  EXPECT_EQ(rx, jammer);
}

TEST(ChipChannel, SameCodeJammingDegradesCorrelation) {
  // End-to-end: a spread bit jammed with the same code at equal power has
  // its correlation collapse on the disagreeing halves.
  Rng rng(6);
  const SpreadCode code = SpreadCode::random(rng, 512);
  const BitVector clean = spread(BitVector::from_string("1"), code);

  ChipChannel channel(512);
  channel.add(Transmission{0, clean});
  // Jammer sends bit "0" (inverted code), in sync.
  channel.add(Transmission{0, spread(BitVector::from_string("0"), code)});
  const BitVector rx = channel.receive(rng);
  const DespreadBit bit = despread_bit(rx, 0, code, 0.15);
  EXPECT_TRUE(bit.erased);  // correlation ~ 0: erasure
}

TEST(ChipChannel, DifferentCodeInterferenceIsNegligible) {
  // The paper's assumption: concurrent transmissions with different
  // pseudorandom codes interfere negligibly at N = 512.
  Rng rng(7);
  const SpreadCode code = SpreadCode::random(rng, 512);
  const SpreadCode other = SpreadCode::random(rng, 512);
  ChipChannel channel(512);
  channel.add(Transmission{0, spread(BitVector::from_string("1"), code)});
  channel.add(Transmission{0, spread(BitVector::from_string("1"), other)});
  const BitVector rx = channel.receive(rng);
  const DespreadBit bit = despread_bit(rx, 0, code, 0.15);
  EXPECT_FALSE(bit.erased);
  EXPECT_TRUE(bit.value);
  EXPECT_GT(bit.correlation, 0.3);
}

TEST(ChipChannel, MakeChipJammingCoverage) {
  Rng rng(8);
  const SpreadCode code = SpreadCode::random(rng, 128);
  const auto txs = adversary::make_chip_jamming(code, 100, 20, 0.5, 2, rng);
  ASSERT_EQ(txs.size(), 2u);
  // ceil(0.5 * 20) = 10 bits * 128 chips each.
  EXPECT_EQ(txs[0].chips.size(), 10u * 128u);
  EXPECT_EQ(txs[0].start_chip, 100u);
  EXPECT_EQ(txs[0].chips, txs[1].chips);  // identical parallel signals
}

TEST(ChipChannel, MakeChipJammingZeroFractionIsEmpty) {
  Rng rng(9);
  const SpreadCode code = SpreadCode::random(rng, 128);
  EXPECT_TRUE(adversary::make_chip_jamming(code, 0, 20, 0.0, 2, rng).empty());
  EXPECT_TRUE(adversary::make_chip_jamming(code, 0, 20, 0.5, 0, rng).empty());
}

TEST(ChipChannel, AmplitudeTwoJammingOverwritesCoveredBits) {
  // Jam the first half of a 20-bit message at amplitude 2: covered bits
  // despread confidently to attacker data; uncovered bits stay intact.
  Rng rng(10);
  const SpreadCode code = SpreadCode::random(rng, 256);
  BitVector message(20);
  for (std::size_t i = 0; i < 20; ++i) message.set(i, rng.bernoulli(0.5));
  const BitVector chips = spread(message, code);

  ChipChannel channel(chips.size());
  channel.add(Transmission{0, chips});
  for (const auto& tx : adversary::make_chip_jamming(code, 0, 20, 0.5, 2, rng)) {
    channel.add(tx);
  }
  const BitVector rx = channel.receive(rng);
  const DespreadResult result = despread(rx, 0, 20, code, 0.15);
  // Uncovered tail must decode exactly.
  for (std::size_t i = 10; i < 20; ++i) {
    EXPECT_EQ(result.bits.get(i), message.get(i)) << "bit " << i;
  }
  // Covered bits are attacker-controlled: expect at least one corrupted bit
  // (probability all 10 match by chance: 2^-10).
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < 10; ++i) mismatches += result.bits.get(i) != message.get(i);
  EXPECT_GE(mismatches, 1u);
}

// --- ChipChannelOracle -------------------------------------------------------
//
// The bit-sliced channel against the per-chip soft-sum oracle: random
// superpositions of 0-6 signals at random (unaligned, clipped, even
// out-of-window) offsets, with repeated and inverted patterns so
// cancellations, ties and multi-signal majorities all occur. One channel is
// reset and reused across cases, as ChipPhy's scratch arena reuses it.

/// The chip pattern of a case's next signal: fresh, or a copy or the
/// inverse of an earlier signal's pattern, so the planes see equal and
/// opposite contributions on the same chips.
BitVector oracle_pattern(Rng& rng, const std::vector<BitVector>& earlier, std::size_t max_len) {
  if (!earlier.empty() && rng.bernoulli(0.5)) {
    const BitVector& base = earlier[static_cast<std::size_t>(rng.uniform(earlier.size()))];
    return rng.bernoulli(0.5) ? base : base.inverted();
  }
  return random_bits(rng, 1 + static_cast<std::size_t>(rng.uniform(max_len)));
}

void expect_matches_oracle(ChipChannel& channel, std::size_t duration,
                           const std::vector<std::pair<std::size_t, BitVector>>& signals,
                           std::uint64_t rng_seed, int case_id) {
  channel.reset(duration);
  oracle::ReferenceChipChannel reference(duration);
  for (const auto& [start, chips] : signals) {
    channel.add(start, chips);
    reference.add(start, chips);
  }
  ASSERT_EQ(channel.soft(), reference.soft()) << "case " << case_id;
  ASSERT_EQ(channel.active(), reference.active()) << "case " << case_id;
  Rng rng(rng_seed);
  Rng reference_rng(rng_seed);
  BitVector received;
  channel.receive_into(rng, received);
  ASSERT_EQ(received, reference.receive(reference_rng)) << "case " << case_id;
  ASSERT_EQ(rng.next(), reference_rng.next()) << "case " << case_id << ": rng draw order";
}

TEST(ChipChannelOracle, RandomSuperpositionsMatchPerChipSoftSums) {
  Rng rng(2024);
  ChipChannel channel;
  for (int c = 0; c < 600; ++c) {
    // Mostly ragged window lengths, sometimes whole words.
    std::size_t duration = 1 + static_cast<std::size_t>(rng.uniform(700));
    if (c % 7 == 0) duration = 64 * (1 + static_cast<std::size_t>(rng.uniform(10)));
    const auto count = static_cast<std::size_t>(rng.uniform(7));
    std::vector<BitVector> patterns;
    std::vector<std::pair<std::size_t, BitVector>> signals;
    for (std::size_t s = 0; s < count; ++s) {
      patterns.push_back(oracle_pattern(rng, patterns, duration + 100));
      // Starts cluster on earlier starts (same-offset stacking) or land
      // anywhere, past the window end included.
      const std::size_t start = !signals.empty() && rng.bernoulli(0.3)
                                    ? signals[static_cast<std::size_t>(rng.uniform(signals.size()))]
                                          .first
                                    : static_cast<std::size_t>(rng.uniform(duration + 64));
      signals.emplace_back(start, patterns.back());
    }
    expect_matches_oracle(channel, duration, signals, rng.next(), c);
  }
}

TEST(ChipChannelOracle, DeepStacksGrowThePlanes) {
  // Up to 6 copies of one pattern at one offset, plus an inverse: counts
  // reach 6 on one side, so the planes grow to three bits and every carry
  // ripples through all of them.
  Rng rng(77);
  ChipChannel channel;
  for (std::size_t copies = 1; copies <= 6; ++copies) {
    const BitVector chips = random_bits(rng, 333);
    std::vector<std::pair<std::size_t, BitVector>> signals;
    for (std::size_t k = 0; k < copies; ++k) signals.emplace_back(70, chips);
    signals.emplace_back(101, chips.inverted());
    expect_matches_oracle(channel, 450, signals, rng.next(), static_cast<int>(copies));
  }
}

TEST(ChipChannelOracle, SilentWindowDrawsEveryChip) {
  ChipChannel channel;
  expect_matches_oracle(channel, 1, {}, 5, 0);
  expect_matches_oracle(channel, 200, {}, 6, 1);
}

}  // namespace
}  // namespace jrsnd::dsss
