// The word-aligned correlation kernel must agree exactly — bit-identical
// doubles, byte-identical SyncHits — with the naive slice-based reference
// path on every buffer length, bit offset, and word-boundary straddle.
#include "dsss/sync_kernel.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsss/sliding_window.hpp"
#include "dsss/spread_code.hpp"
#include "dsss/spreader.hpp"
#include "oracle/dsss_reference.hpp"

namespace jrsnd::dsss {
namespace {

using oracle::find_all_messages_reference;
using oracle::find_first_message_reference;
using oracle::ShiftTable;

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

/// The seed implementation the kernel replaced: slice out the window, then
/// correlate the copies. Ground truth for every kernel assertion below.
double naive_correlate(const BitVector& buffer, std::size_t offset, const SpreadCode& code) {
  const BitVector window = buffer.slice(offset, code.length());
  const std::size_t hamming = code.bits().xor_with(window).popcount();
  const auto n = static_cast<double>(code.length());
  return (n - 2.0 * static_cast<double>(hamming)) / n;
}

TEST(SyncKernel, HammingAtMatchesSliceOnRandomCorpus) {
  Rng rng(1);
  // Lengths chosen to cover sub-word codes, exact word multiples, and tails.
  for (const std::size_t n : {1UL, 7UL, 63UL, 64UL, 65UL, 100UL, 128UL, 200UL, 511UL, 512UL}) {
    const SpreadCode code = SpreadCode::random(rng, n);
    const BitVector buffer = random_bits(rng, n + 200);
    for (std::size_t offset = 0; offset + n <= buffer.size(); ++offset) {
      const BitVector window = buffer.slice(offset, n);
      EXPECT_EQ(hamming_at(buffer, offset, code.bits()), code.bits().hamming_distance(window))
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(SyncKernel, CorrelateAtIsBitIdenticalToNaive) {
  Rng rng(2);
  for (const std::size_t n : {5UL, 64UL, 96UL, 127UL, 256UL, 512UL}) {
    const SpreadCode code = SpreadCode::random(rng, n);
    const BitVector buffer = random_bits(rng, n + 150);
    for (std::size_t offset = 0; offset + n <= buffer.size(); ++offset) {
      // Exact double equality: both sides compute (N - 2h) / N from the
      // same integer h, so any difference is a kernel bug, not rounding.
      EXPECT_EQ(correlate_at(buffer, offset, code.bits()), naive_correlate(buffer, offset, code))
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(SyncKernel, ShiftTableMatchesNaiveAtAllAlignments) {
  Rng rng(3);
  for (const std::size_t n : {3UL, 64UL, 65UL, 128UL, 300UL, 512UL}) {
    const SpreadCode code = SpreadCode::random(rng, n);
    const ShiftTable table(code);
    EXPECT_EQ(table.length(), n);
    const BitVector buffer = random_bits(rng, n + 130);  // covers all 64 alignments twice
    for (std::size_t offset = 0; offset + n <= buffer.size(); ++offset) {
      EXPECT_EQ(table.correlate(buffer, offset), naive_correlate(buffer, offset, code))
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(SyncKernel, ShiftTableHandlesBufferTailExactly) {
  // The last window of a buffer whose size is not a word multiple exercises
  // the mask rows against the BitVector zero-slack invariant.
  Rng rng(4);
  for (const std::size_t extra : {0UL, 1UL, 17UL, 63UL}) {
    const std::size_t n = 96;
    const SpreadCode code = SpreadCode::random(rng, n);
    const ShiftTable table(code);
    const BitVector buffer = random_bits(rng, n + extra);
    const std::size_t last = buffer.size() - n;
    EXPECT_EQ(table.correlate(buffer, last), naive_correlate(buffer, last, code));
    EXPECT_EQ(correlate_at(buffer, last, code.bits()), naive_correlate(buffer, last, code));
  }
}

TEST(SyncKernel, ShiftTablePerfectHitAndInverse) {
  Rng rng(5);
  const SpreadCode code = SpreadCode::random(rng, 512);
  const ShiftTable table(code);
  BitVector buffer = random_bits(rng, 37);  // unaligned start
  const std::size_t at = buffer.size();
  buffer.append(code.bits());
  buffer.append(code.bits().inverted());
  buffer.append(random_bits(rng, 11));
  EXPECT_DOUBLE_EQ(table.correlate(buffer, at), 1.0);
  EXPECT_DOUBLE_EQ(table.correlate(buffer, at + 512), -1.0);
}

TEST(SyncKernel, DespreadViaShiftTableMatchesSpreadCodePath) {
  Rng rng(6);
  const SpreadCode code = SpreadCode::random(rng, 128);
  const ShiftTable table(code);
  const BitVector message = random_bits(rng, 20);
  BitVector buffer = random_bits(rng, 77);
  const std::size_t at = buffer.size();
  buffer.append(spread(message, code));
  buffer.append(random_bits(rng, 13));

  const DespreadResult via_code = despread(buffer, at, 20, code, 0.15);
  const DespreadResult via_table = despread(buffer, at, 20, table, 0.15);
  EXPECT_EQ(via_table.bits, via_code.bits);
  EXPECT_EQ(via_table.erased_bits, via_code.erased_bits);
  EXPECT_EQ(via_table.bits, message);
}

// --- kernel scan vs. reference oracle --------------------------------------

void expect_same_hit(const std::optional<SyncHit>& kernel, const std::optional<SyncHit>& ref) {
  ASSERT_EQ(kernel.has_value(), ref.has_value());
  if (!kernel.has_value()) return;
  EXPECT_EQ(kernel->code_index, ref->code_index);
  EXPECT_EQ(kernel->chip_offset, ref->chip_offset);
  EXPECT_EQ(kernel->message.bits, ref->message.bits);
  EXPECT_EQ(kernel->message.erased_bits, ref->message.erased_bits);
}

TEST(SyncKernel, FindFirstMatchesReferenceOnPropertyCorpus) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const std::size_t n = 64 + static_cast<std::size_t>(rng.uniform(200));  // incl. non-multiples
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform(6));
    std::vector<SpreadCode> codes;
    for (std::size_t i = 0; i < m; ++i) codes.push_back(SpreadCode::random(rng, n));
    const std::size_t bits = 3 + static_cast<std::size_t>(rng.uniform(6));

    BitVector buffer = random_bits(rng, static_cast<std::size_t>(rng.uniform(400)));
    const bool plant = rng.bernoulli(0.8);
    if (plant) {
      const BitVector message = random_bits(rng, bits);
      const std::size_t which = static_cast<std::size_t>(rng.uniform(m));
      buffer.append(spread(message, codes[which]));
    }
    buffer.append(random_bits(rng, static_cast<std::size_t>(rng.uniform(150))));

    expect_same_hit(find_first_message(buffer, codes, bits, 0.3),
                    find_first_message_reference(buffer, codes, bits, 0.3));
  }
}

TEST(SyncKernel, FindAllMatchesReferenceOnPropertyCorpus) {
  for (std::uint64_t seed = 100; seed <= 115; ++seed) {
    Rng rng(seed);
    const std::size_t n = 64 + static_cast<std::size_t>(rng.uniform(128));
    std::vector<SpreadCode> codes;
    for (std::size_t i = 0; i < 3; ++i) codes.push_back(SpreadCode::random(rng, n));
    const std::size_t bits = 4;

    BitVector buffer = random_bits(rng, static_cast<std::size_t>(rng.uniform(100)));
    const std::size_t messages = static_cast<std::size_t>(rng.uniform(4));
    for (std::size_t i = 0; i < messages; ++i) {
      buffer.append(spread(random_bits(rng, bits), codes[i % codes.size()]));
      buffer.append(random_bits(rng, static_cast<std::size_t>(rng.uniform(90))));
    }

    const std::vector<SyncHit> kernel = find_all_messages(buffer, codes, bits, 0.3);
    const std::vector<SyncHit> ref = find_all_messages_reference(buffer, codes, bits, 0.3);
    ASSERT_EQ(kernel.size(), ref.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < kernel.size(); ++i) {
      EXPECT_EQ(kernel[i].code_index, ref[i].code_index);
      EXPECT_EQ(kernel[i].chip_offset, ref[i].chip_offset);
      EXPECT_EQ(kernel[i].message.bits, ref[i].message.bits);
      EXPECT_EQ(kernel[i].message.erased_bits, ref[i].message.erased_bits);
    }
  }
}

TEST(SyncKernel, StartOffsetAgreesWithReference) {
  Rng rng(7);
  const SpreadCode code = SpreadCode::random(rng, 128);
  const BitVector message = random_bits(rng, 6);
  BitVector buffer = spread(message, code);
  const std::size_t second_at = buffer.size();
  buffer.append(spread(message, code));
  const std::vector<SpreadCode> codes = {code};
  for (const std::size_t start : {0UL, 1UL, second_at - 10, second_at, second_at + 1}) {
    expect_same_hit(find_first_message(buffer, codes, 6, 0.3, start),
                    find_first_message_reference(buffer, codes, 6, 0.3, start));
  }
}

#ifdef NDEBUG
// The mixed-length precondition asserts in debug builds; the documented
// release-mode behavior is a clean "no hit" so a misconfigured code pool
// cannot fabricate discoveries from out-of-bounds window reads.
TEST(SyncKernel, MixedCodeLengthsReturnNoHitInRelease) {
  Rng rng(8);
  std::vector<SpreadCode> mixed = {SpreadCode::random(rng, 128), SpreadCode::random(rng, 256)};
  const BitVector message = random_bits(rng, 4);
  BitVector buffer = spread(message, mixed[0]);
  buffer.append(random_bits(rng, 300));
  EXPECT_FALSE(find_first_message(buffer, mixed, 4, 0.3).has_value());
  EXPECT_TRUE(find_all_messages(buffer, mixed, 4, 0.3).empty());
  EXPECT_FALSE(find_first_message_reference(buffer, mixed, 4, 0.3).has_value());
  EXPECT_TRUE(find_all_messages_reference(buffer, mixed, 4, 0.3).empty());
}
#else
TEST(SyncKernel, MixedCodeLengthsAssertInDebug) {
  Rng rng(8);
  std::vector<SpreadCode> mixed = {SpreadCode::random(rng, 128), SpreadCode::random(rng, 256)};
  const BitVector buffer = random_bits(rng, 1024);
  EXPECT_DEATH((void)find_first_message(buffer, mixed, 4, 0.3), "mixed candidate code lengths");
  EXPECT_DEATH((void)find_all_messages(buffer, mixed, 4, 0.3), "mixed candidate code lengths");
}
#endif

}  // namespace
}  // namespace jrsnd::dsss
