#include "dsss/sliding_window.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsss/prepared_codebook.hpp"

namespace jrsnd::dsss {
namespace {

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

struct Scenario {
  BitVector buffer;
  BitVector message;
  std::size_t offset;
};

Scenario make_scenario(Rng& rng, const SpreadCode& code, std::size_t message_bits,
                       std::size_t pad_before, std::size_t pad_after) {
  Scenario s;
  s.message = random_bits(rng, message_bits);
  s.offset = pad_before;
  s.buffer = random_bits(rng, pad_before);
  s.buffer.append(spread(s.message, code));
  s.buffer.append(random_bits(rng, pad_after));
  return s;
}

TEST(SlidingWindow, FindsMessageAtExactOffset) {
  Rng rng(1);
  const SpreadCode code = SpreadCode::random(rng, 256);
  const Scenario s = make_scenario(rng, code, 12, 333, 100);
  const std::vector<SpreadCode> codes = {code};
  const auto hit = find_first_message(s.buffer, codes, 12, 0.3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->chip_offset, 333u);
  EXPECT_EQ(hit->code_index, 0u);
  EXPECT_EQ(hit->message.bits, s.message);
  EXPECT_TRUE(hit->message.erased_bits.empty());
}

TEST(SlidingWindow, FindsMessageAtOffsetZero) {
  Rng rng(2);
  const SpreadCode code = SpreadCode::random(rng, 256);
  const Scenario s = make_scenario(rng, code, 8, 0, 64);
  const std::vector<SpreadCode> codes = {code};
  const auto hit = find_first_message(s.buffer, codes, 8, 0.3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->chip_offset, 0u);
  EXPECT_EQ(hit->message.bits, s.message);
}

TEST(SlidingWindow, IdentifiesWhichCodeWasUsed) {
  Rng rng(3);
  std::vector<SpreadCode> codes;
  for (int i = 0; i < 5; ++i) codes.push_back(SpreadCode::random(rng, 256));
  const Scenario s = make_scenario(rng, codes[3], 10, 128, 64);
  const auto hit = find_first_message(s.buffer, codes, 10, 0.3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->code_index, 3u);
  EXPECT_EQ(hit->message.bits, s.message);
}

TEST(SlidingWindow, ReturnsNulloptWhenNoMessage) {
  Rng rng(4);
  const SpreadCode code = SpreadCode::random(rng, 256);
  const BitVector noise = random_bits(rng, 2000);
  const std::vector<SpreadCode> codes = {code};
  // tau = 0.3 over 256 chips is ~4.8 sigma: noise essentially never syncs.
  EXPECT_FALSE(find_first_message(noise, codes, 6, 0.3).has_value());
}

TEST(SlidingWindow, ReturnsNulloptWhenWrongCode) {
  Rng rng(5);
  const SpreadCode used = SpreadCode::random(rng, 256);
  const SpreadCode scanned = SpreadCode::random(rng, 256);
  const Scenario s = make_scenario(rng, used, 10, 100, 100);
  const std::vector<SpreadCode> codes = {scanned};
  EXPECT_FALSE(find_first_message(s.buffer, codes, 10, 0.3).has_value());
}

TEST(SlidingWindow, BufferTooShortReturnsNullopt) {
  Rng rng(6);
  const SpreadCode code = SpreadCode::random(rng, 256);
  const std::vector<SpreadCode> codes = {code};
  EXPECT_FALSE(find_first_message(BitVector(255), codes, 1, 0.3).has_value());
  EXPECT_FALSE(find_first_message(BitVector(256 * 3 - 1), codes, 3, 0.3).has_value());
}

TEST(SlidingWindow, EmptyCandidatesReturnsNullopt) {
  const BitVector buffer(1000);
  EXPECT_FALSE(find_first_message(buffer, std::span<const SpreadCode>{}, 4, 0.3).has_value());
  EXPECT_FALSE(find_first_message(buffer, PreparedCodebook{}, 4, 0.3).has_value());
}

TEST(SlidingWindow, StartOffsetSkipsEarlierHit) {
  Rng rng(7);
  const SpreadCode code = SpreadCode::random(rng, 128);
  // Two messages back to back; scanning from just before the second one's
  // start must lock onto the second (offsets inside the first message's
  // final bit are non-boundary noise).
  const BitVector msg1 = random_bits(rng, 6);
  const BitVector msg2 = random_bits(rng, 6);
  BitVector buffer = spread(msg1, code);
  const std::size_t second_at = buffer.size();
  buffer.append(spread(msg2, code));
  const std::vector<SpreadCode> codes = {code};
  const auto hit = find_first_message(buffer, codes, 6, 0.3, second_at - 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->chip_offset, second_at);
  EXPECT_EQ(hit->message.bits, msg2);
}

TEST(SlidingWindow, FindAllRecoversMultipleMessages) {
  // The paper notes a buffer may hold HELLOs from several initiators.
  Rng rng(8);
  const SpreadCode code_a = SpreadCode::random(rng, 128);
  const SpreadCode code_b = SpreadCode::random(rng, 128);
  const BitVector msg_a = random_bits(rng, 6);
  const BitVector msg_b = random_bits(rng, 6);

  BitVector buffer = random_bits(rng, 64);
  buffer.append(spread(msg_a, code_a));
  buffer.append(random_bits(rng, 97));
  buffer.append(spread(msg_b, code_b));
  buffer.append(random_bits(rng, 32));

  const std::vector<SpreadCode> codes = {code_a, code_b};
  const auto hits = find_all_messages(buffer, codes, 6, 0.3);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].code_index, 0u);
  EXPECT_EQ(hits[0].message.bits, msg_a);
  EXPECT_EQ(hits[1].code_index, 1u);
  EXPECT_EQ(hits[1].message.bits, msg_b);
}

TEST(SlidingWindow, ScanCorrelationCountFormula) {
  EXPECT_EQ(scan_correlation_count(1000, 10, 256), (1000 - 256 + 1) * 10u);
  EXPECT_EQ(scan_correlation_count(255, 10, 256), 0u);
  EXPECT_EQ(scan_correlation_count(256, 10, 256), 10u);
}

class WindowOffsetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowOffsetSweep, SyncAtAnyOffset) {
  Rng rng(GetParam() * 7 + 1);
  const SpreadCode code = SpreadCode::random(rng, 128);
  const Scenario s = make_scenario(rng, code, 5, GetParam(), 50);
  const std::vector<SpreadCode> codes = {code};
  const auto hit = find_first_message(s.buffer, codes, 5, 0.35);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->chip_offset, GetParam());
  EXPECT_EQ(hit->message.bits, s.message);
}

INSTANTIATE_TEST_SUITE_P(Offsets, WindowOffsetSweep,
                         ::testing::Values(0, 1, 2, 17, 63, 64, 65, 127, 128, 500));

TEST(HammingBounds, AgreeWithTheCorrelationThresholdAtEveryDistance) {
  // The integer bounds the scan and the despreader compare against must
  // classify every Hamming distance exactly as decide_bit classifies its
  // correlation, including thresholds at or below zero and above one.
  for (const std::size_t n : {1u, 7u, 64u, 127u, 512u}) {
    for (const double tau : {-0.5, 0.0, 0.05, 0.15, 0.3, 1.0, 1.5}) {
      const HammingBounds b = hamming_bounds(n, tau);
      for (std::size_t h = 0; h <= n; ++h) {
        const DespreadBit d = decide_bit(correlation_from_hamming(n, h), tau);
        EXPECT_EQ(h < b.hit_below, d.value) << "n=" << n << " tau=" << tau << " h=" << h;
        EXPECT_EQ((b.past(h) >> 63) == 0, d.erased) << "n=" << n << " tau=" << tau << " h=" << h;
      }
    }
  }
}

}  // namespace
}  // namespace jrsnd::dsss
