#include "common/bit_vector.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace jrsnd {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
}

TEST(BitVector, SizedConstructorZeroFilled) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.get(i));
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, SetGetFlip) {
  BitVector v(70);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(69, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(69));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.flip(0);
  EXPECT_FALSE(v.get(0));
  v.flip(1);
  EXPECT_TRUE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVector, PushBackGrows) {
  BitVector v;
  for (int i = 0; i < 130; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 130u);
  for (int i = 0; i < 130; ++i) EXPECT_EQ(v.get(static_cast<std::size_t>(i)), i % 3 == 0);
}

TEST(BitVector, AppendUintMsbFirst) {
  BitVector v;
  v.append_uint(0b1011, 4);
  EXPECT_EQ(v.to_string(), "1011");
  v.append_uint(0xff, 8);
  EXPECT_EQ(v.to_string(), "101111111111");
}

TEST(BitVector, AppendUintLeadingZeros) {
  BitVector v;
  v.append_uint(1, 8);
  EXPECT_EQ(v.to_string(), "00000001");
}

TEST(BitVector, ReadUintRoundTrip) {
  BitVector v;
  v.append_uint(0xdeadbeefcafe1234ULL, 64);
  EXPECT_EQ(v.read_uint(0, 64), 0xdeadbeefcafe1234ULL);
  EXPECT_EQ(v.read_uint(0, 16), 0xdeadu);
  EXPECT_EQ(v.read_uint(16, 16), 0xbeefu);
  EXPECT_EQ(v.read_uint(48, 16), 0x1234u);
}

TEST(BitVector, ReadUintUnalignedOffsets) {
  BitVector v = BitVector::from_string("0101100111000");
  EXPECT_EQ(v.read_uint(1, 4), 0b1011u);
  EXPECT_EQ(v.read_uint(5, 5), 0b00111u);
}

TEST(BitVector, FromToBytes) {
  const std::vector<std::uint8_t> bytes = {0xa5, 0x01, 0xff};
  const BitVector v = BitVector::from_bytes(bytes);
  EXPECT_EQ(v.size(), 24u);
  EXPECT_EQ(v.to_bytes(), bytes);
  EXPECT_EQ(v.to_string(), "101001010000000111111111");
}

TEST(BitVector, ToBytesPadsPartialByte) {
  const BitVector v = BitVector::from_string("101");
  const std::vector<std::uint8_t> expected = {0xa0};
  EXPECT_EQ(v.to_bytes(), expected);
}

TEST(BitVector, FromStringRejectsBadChars) {
  EXPECT_THROW((void)BitVector::from_string("10a"), std::invalid_argument);
}

TEST(BitVector, AppendConcatenates) {
  BitVector a = BitVector::from_string("1100");
  const BitVector b = BitVector::from_string("0011");
  a.append(b);
  EXPECT_EQ(a.to_string(), "11000011");
}

TEST(BitVector, SliceExtractsRange) {
  const BitVector v = BitVector::from_string("110010101111");
  EXPECT_EQ(v.slice(2, 5).to_string(), "00101");
  EXPECT_EQ(v.slice(0, 0).size(), 0u);
  EXPECT_EQ(v.slice(0, 12).to_string(), v.to_string());
}

TEST(BitVector, SliceAcrossWordBoundary) {
  BitVector v;
  for (int i = 0; i < 200; ++i) v.push_back(i % 2 == 0);
  const BitVector s = v.slice(60, 10);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s.get(i), (60 + i) % 2 == 0);
}

TEST(BitVector, XorSemantics) {
  const BitVector a = BitVector::from_string("1100");
  const BitVector b = BitVector::from_string("1010");
  EXPECT_EQ(a.xor_with(b).to_string(), "0110");
}

TEST(BitVector, XorSizeMismatchThrows) {
  const BitVector a = BitVector::from_string("1100");
  const BitVector b = BitVector::from_string("110");
  EXPECT_THROW((void)a.xor_with(b), std::invalid_argument);
}

TEST(BitVector, XorIsCommutativeAndSelfInverse) {
  Rng rng(9);
  BitVector a(333);
  BitVector b(333);
  for (std::size_t i = 0; i < 333; ++i) {
    a.set(i, rng.bernoulli(0.5));
    b.set(i, rng.bernoulli(0.5));
  }
  EXPECT_EQ(a.xor_with(b), b.xor_with(a));
  EXPECT_EQ(a.xor_with(b).xor_with(b), a);
}

TEST(BitVector, HammingDistance) {
  const BitVector a = BitVector::from_string("11110000");
  const BitVector b = BitVector::from_string("11001100");
  EXPECT_EQ(a.hamming_distance(b), 4u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(BitVector, EqualityIncludesLength) {
  const BitVector a = BitVector::from_string("10");
  const BitVector b = BitVector::from_string("100");
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == BitVector::from_string("10"));
}

TEST(BitVector, RoundTripBytesRandom) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t len = 8 * (1 + rng.uniform(50));
    BitVector v(len);
    for (std::size_t i = 0; i < len; ++i) v.set(i, rng.bernoulli(0.5));
    EXPECT_EQ(BitVector::from_bytes(v.to_bytes()), v);
  }
}


TEST(BitVector, AppendAtEveryAlignment) {
  // The word-level append must agree with bit-by-bit for every offset.
  Rng rng(555);
  for (std::size_t lead = 0; lead < 130; lead += 7) {
    for (const std::size_t extra : {1u, 63u, 64u, 65u, 130u}) {
      BitVector base(lead);
      for (std::size_t i = 0; i < lead; ++i) base.set(i, rng.bernoulli(0.5));
      BitVector suffix(extra);
      for (std::size_t i = 0; i < extra; ++i) suffix.set(i, rng.bernoulli(0.5));

      BitVector fast = base;
      fast.append(suffix);
      BitVector slow = base;
      for (std::size_t i = 0; i < extra; ++i) slow.push_back(suffix.get(i));
      ASSERT_EQ(fast, slow) << "lead=" << lead << " extra=" << extra;
      // And the result still accepts push_back cleanly.
      fast.push_back(true);
      slow.push_back(true);
      ASSERT_EQ(fast, slow);
    }
  }
}

TEST(BitVector, SliceAtEveryAlignment) {
  Rng rng(556);
  BitVector v(400);
  for (std::size_t i = 0; i < 400; ++i) v.set(i, rng.bernoulli(0.5));
  for (std::size_t offset = 0; offset < 140; offset += 11) {
    for (const std::size_t count : {0u, 1u, 63u, 64u, 65u, 200u}) {
      const BitVector s = v.slice(offset, count);
      ASSERT_EQ(s.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(s.get(i), v.get(offset + i)) << offset << "+" << i;
      }
      // Invariant check via equality with a rebuilt copy.
      BitVector rebuilt;
      for (std::size_t i = 0; i < count; ++i) rebuilt.push_back(s.get(i));
      ASSERT_EQ(s, rebuilt);
    }
  }
}

TEST(BitVector, InvertedFlipsEverythingAndKeepsInvariant) {
  Rng rng(557);
  for (const std::size_t len : {1u, 64u, 65u, 100u, 333u}) {
    BitVector v(len);
    for (std::size_t i = 0; i < len; ++i) v.set(i, rng.bernoulli(0.5));
    const BitVector inv = v.inverted();
    ASSERT_EQ(inv.size(), len);
    for (std::size_t i = 0; i < len; ++i) ASSERT_NE(inv.get(i), v.get(i));
    EXPECT_EQ(inv.popcount(), len - v.popcount());
    EXPECT_EQ(v.hamming_distance(inv), len);
    // Appending after inversion must not resurrect slack bits.
    BitVector grown = inv;
    grown.push_back(false);
    EXPECT_FALSE(grown.get(len));
  }
}

class BitVectorWidthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVectorWidthSweep, AppendReadRoundTrip) {
  const std::size_t width = GetParam();
  Rng rng(width);
  const std::uint64_t value = width == 64 ? rng.next() : rng.next() & ((1ULL << width) - 1);
  BitVector v;
  v.append_uint(0b101, 3);  // misalign
  v.append_uint(value, width);
  EXPECT_EQ(v.read_uint(3, width), value);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorWidthSweep,
                         ::testing::Values(1, 2, 5, 8, 13, 16, 20, 31, 32, 33, 48, 63, 64));

// --- word-level codecs against bit-by-bit references -------------------------

/// read_uint as it was once written: one get() per bit, MSB first.
std::uint64_t read_uint_bitwise(const BitVector& v, std::size_t offset, std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) value = (value << 1) | (v.get(offset + i) ? 1u : 0u);
  return value;
}

/// from_bytes as it was once written: eight bits per byte, MSB first.
BitVector from_bytes_bitwise(const std::vector<std::uint8_t>& bytes) {
  BitVector v;
  for (const std::uint8_t b : bytes) {
    for (int bit = 7; bit >= 0; --bit) v.push_back(((b >> bit) & 1u) != 0);
  }
  return v;
}

TEST(BitVectorWordCodecs, ReadUintMatchesBitwiseAtEveryOffsetAndWidth) {
  // 192 bits = three full words: every offset in 0..191 with every width
  // that fits, so reads inside one word, reads straddling words 0|1 and
  // 1|2, and reads that end exactly at the last bit of the last word.
  Rng rng(21);
  BitVector v;
  for (int w = 0; w < 3; ++w) v.append_uint(rng.next(), 64);
  ASSERT_EQ(v.size(), 192u);
  for (std::size_t offset = 0; offset < 192; ++offset) {
    for (std::size_t width = 0; width <= 64 && offset + width <= 192; ++width) {
      ASSERT_EQ(v.read_uint(offset, width), read_uint_bitwise(v, offset, width))
          << "offset " << offset << " width " << width;
    }
  }
}

TEST(BitVectorWordCodecs, ReadUintAtTheEndOfAPartialLastWord) {
  // A 150-bit vector: the last word holds 22 bits and zero slack; reads that
  // end at bit 150 must never pick up slack bits.
  Rng rng(22);
  BitVector v;
  for (int w = 0; w < 2; ++w) v.append_uint(rng.next(), 64);
  v.append_uint(rng.next(), 22);
  ASSERT_EQ(v.size(), 150u);
  for (std::size_t width = 0; width <= 64; ++width) {
    EXPECT_EQ(v.read_uint(150 - width, width), read_uint_bitwise(v, 150 - width, width))
        << width;
  }
}

TEST(BitVectorWordCodecs, FromBytesMatchesBitwiseAndKeepsSlackZero) {
  Rng rng(23);
  for (std::size_t len = 0; len <= 17; ++len) {
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next() | 0x01);  // never all-zero
    const BitVector v = BitVector::from_bytes(bytes);
    EXPECT_EQ(v, from_bytes_bitwise(bytes)) << len;
    ASSERT_EQ(v.size(), len * 8);
    ASSERT_EQ(v.words().size(), (len * 8 + 63) / 64);
    if (const std::size_t tail = v.size() % 64; tail != 0) {
      EXPECT_EQ(v.words().back() << tail, 0u) << "slack bits set at length " << len;
    }
    EXPECT_EQ(v.to_bytes(), bytes) << len;
  }
}

TEST(BitVectorWordCodecs, AppendUintAndZerosAtEveryAlignment) {
  Rng rng(24);
  for (std::size_t lead = 0; lead < 64; ++lead) {
    for (const std::size_t width : {1u, 7u, 31u, 57u, 63u, 64u}) {
      BitVector v(lead);
      const std::uint64_t value = rng.next();
      v.append_uint(value, width);
      v.append_zeros(lead + 1);
      ASSERT_EQ(v.size(), 2 * lead + 1 + width);
      const std::uint64_t mask = width == 64 ? ~0ULL : (1ULL << width) - 1;
      EXPECT_EQ(v.read_uint(lead, width), value & mask) << lead << "/" << width;
      // Nothing outside the field is set: not the lead, not the zeros.
      EXPECT_EQ(v.popcount(), static_cast<std::size_t>(std::popcount(value & mask)));
    }
  }
}

}  // namespace
}  // namespace jrsnd
