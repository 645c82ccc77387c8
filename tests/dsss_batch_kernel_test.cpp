// The SIMD-batched correlator must agree exactly — bit-identical integer
// Hamming distances, bit-identical correlation doubles, byte-identical
// SyncHits — with the single-code ShiftTable kernel and the naive slice
// reference on EVERY compiled backend. Each property below therefore loops
// over the supported backends via set_simd_backend; a host without AVX
// still exercises the scalar path, and CI's JRSND_SIMD=scalar leg pins the
// whole suite to it.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dsss/prepared_codebook.hpp"
#include "dsss/sliding_window.hpp"
#include "dsss/spread_code.hpp"
#include "dsss/spreader.hpp"
#include "dsss/sync_kernel.hpp"
#include "oracle/dsss_reference.hpp"

namespace jrsnd::dsss {
namespace {

using oracle::build_shift_tables;
using oracle::find_all_messages_reference;
using oracle::find_first_message_reference;
using oracle::ShiftTable;

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

std::vector<SpreadCode> random_codes(Rng& rng, std::size_t m, std::size_t n) {
  std::vector<SpreadCode> codes;
  codes.reserve(m);
  for (std::size_t i = 0; i < m; ++i) codes.push_back(SpreadCode::random(rng, n));
  return codes;
}

std::vector<SimdBackend> supported_backends() {
  std::vector<SimdBackend> backends;
  for (const SimdBackend b :
       {SimdBackend::kScalar, SimdBackend::kAvx2, SimdBackend::kAvx512, SimdBackend::kNeon}) {
    if (simd_backend_supported(b)) backends.push_back(b);
  }
  return backends;
}

/// Pins the dispatch backend for one test body and restores the previous
/// choice on scope exit, so test order never leaks a forced backend.
class ScopedBackend {
 public:
  explicit ScopedBackend(SimdBackend backend) : previous_(simd_backend()) {
    set_simd_backend(backend);
  }
  ~ScopedBackend() { set_simd_backend(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  SimdBackend previous_;
};

TEST(BatchKernel, ScalarBackendAlwaysSupported) {
  EXPECT_TRUE(simd_backend_supported(SimdBackend::kScalar));
  EXPECT_TRUE(simd_backend_supported(simd_backend()));
}

TEST(BatchKernel, SetBackendClampsToSupported) {
  const SimdBackend original = simd_backend();
  for (const SimdBackend request :
       {SimdBackend::kScalar, SimdBackend::kAvx2, SimdBackend::kAvx512, SimdBackend::kNeon}) {
    const SimdBackend installed = set_simd_backend(request);
    EXPECT_TRUE(simd_backend_supported(installed))
        << "request=" << simd_backend_name(request);
    EXPECT_EQ(installed, simd_backend());
    if (simd_backend_supported(request)) {
      EXPECT_EQ(installed, request);
    }
  }
  set_simd_backend(original);
}

TEST(BatchKernel, BackendNamesAreStable) {
  EXPECT_STREQ(simd_backend_name(SimdBackend::kScalar), "scalar");
  EXPECT_STREQ(simd_backend_name(SimdBackend::kAvx2), "avx2");
  EXPECT_STREQ(simd_backend_name(SimdBackend::kAvx512), "avx512");
  EXPECT_STREQ(simd_backend_name(SimdBackend::kNeon), "neon");
}

// The core bit-identity property: hamming_all over a group equals the
// per-code ShiftTable::hamming at every offset, for every supported
// backend, across sub-word / word-multiple / straddling code lengths and
// group sizes below, at, and above one vector register (8 lanes).
TEST(BatchKernel, HammingAllMatchesShiftTablePerBackend) {
  for (const SimdBackend backend : supported_backends()) {
    const ScopedBackend scope(backend);
    Rng rng(11);
    for (const std::size_t n : {1UL, 7UL, 63UL, 64UL, 65UL, 100UL, 128UL, 200UL, 511UL, 512UL}) {
      for (const std::size_t m : {1UL, 2UL, 5UL, 8UL, 9UL, 16UL, 20UL}) {
        const std::vector<SpreadCode> codes = random_codes(rng, m, n);
        const BatchShiftTable batch{std::span<const SpreadCode>(codes)};
        const std::vector<ShiftTable> tables = build_shift_tables(codes);
        ASSERT_EQ(batch.size(), m);
        ASSERT_EQ(batch.lane_count() % 8, 0U);
        ASSERT_GE(batch.lane_count(), m);

        const BitVector buffer = random_bits(rng, n + 130);  // all 64 alignments, twice
        std::vector<std::uint64_t> hams(batch.lane_count());
        for (std::size_t offset = 0; offset + n <= buffer.size(); ++offset) {
          batch.hamming_all(buffer, offset, hams);
          for (std::size_t c = 0; c < m; ++c) {
            ASSERT_EQ(hams[c], tables[c].hamming(buffer, offset))
                << simd_backend_name(backend) << " n=" << n << " m=" << m << " c=" << c
                << " offset=" << offset;
          }
        }
      }
    }
  }
}

// hamming_lane / correlate_lane read the same SoA rows with a stride — the
// despread path. Must match ShiftTable exactly, bitwise, per backend.
TEST(BatchKernel, LaneAccessorsMatchShiftTable) {
  for (const SimdBackend backend : supported_backends()) {
    const ScopedBackend scope(backend);
    Rng rng(12);
    const std::size_t n = 129;
    const std::vector<SpreadCode> codes = random_codes(rng, 6, n);
    const BatchShiftTable batch{std::span<const SpreadCode>(codes)};
    const std::vector<ShiftTable> tables = build_shift_tables(codes);
    const BitVector buffer = random_bits(rng, n + 130);
    for (std::size_t offset = 0; offset + n <= buffer.size(); ++offset) {
      for (std::size_t c = 0; c < codes.size(); ++c) {
        ASSERT_EQ(batch.hamming_lane(c, buffer, offset), tables[c].hamming(buffer, offset));
        ASSERT_EQ(batch.correlate_lane(c, buffer, offset), tables[c].correlate(buffer, offset))
            << simd_backend_name(backend) << " c=" << c << " offset=" << offset;
      }
    }
  }
}

TEST(BatchKernel, EmptyGroupIsInert) {
  const BatchShiftTable batch;
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.size(), 0U);
  EXPECT_EQ(batch.lane_count(), 0U);
  EXPECT_TRUE(BatchShiftTable(std::span<const SpreadCode>{}).empty());
}

// A singleton group must match the single-code kernel exactly — the batched
// scan degenerates to the per-code path with seven zero padding lanes.
TEST(BatchKernel, SingletonGroupMatchesSingleCodeKernel) {
  for (const SimdBackend backend : supported_backends()) {
    const ScopedBackend scope(backend);
    Rng rng(13);
    const SpreadCode code = SpreadCode::random(rng, 200);
    const std::vector<SpreadCode> codes{code};
    const BatchShiftTable batch{std::span<const SpreadCode>(codes)};
    const ShiftTable table(code);
    ASSERT_EQ(batch.size(), 1U);
    ASSERT_EQ(batch.lane_count(), 8U);

    const BitVector buffer = random_bits(rng, 200 + 130);
    std::vector<std::uint64_t> hams(batch.lane_count());
    for (std::size_t offset = 0; offset + 200 <= buffer.size(); ++offset) {
      batch.hamming_all(buffer, offset, hams);
      ASSERT_EQ(hams[0], table.hamming(buffer, offset)) << simd_backend_name(backend);
    }
  }
}

// A mixed-length pool has no single scan stride, so a PreparedCodebook over
// one builds no table at all; every scan entry point refuses it up front.
TEST(BatchKernel, MixedLengthPreparedCodebookBuildsNoTable) {
  Rng rng(15);
  std::vector<SpreadCode> codes;
  codes.push_back(SpreadCode::random(rng, 64));
  codes.push_back(SpreadCode::random(rng, 96));
  const PreparedCodebook codebook{std::move(codes)};
  EXPECT_FALSE(codebook.uniform_lengths());
  EXPECT_TRUE(codebook.batch_table().empty());
  EXPECT_EQ(codebook.batch_table().size(), 0U);
}

/// Builds a buffer with `planted` messages spread by randomly chosen codes
/// from `codes`, separated by random noise runs. Mirrors the corpus the
/// existing FindAllMessages properties use.
BitVector planted_buffer(Rng& rng, std::span<const SpreadCode> codes, std::size_t message_bits,
                         std::size_t planted) {
  BitVector buffer = random_bits(rng, static_cast<std::size_t>(rng.uniform(120)));
  for (std::size_t i = 0; i < planted; ++i) {
    const std::size_t which = static_cast<std::size_t>(rng.uniform(codes.size()));
    const BitVector message = random_bits(rng, message_bits);
    buffer.append(spread(message, codes[which]));
    buffer.append(random_bits(rng, static_cast<std::size_t>(rng.uniform(90))));
  }
  return buffer;
}

void expect_same_hit(const SyncHit& got, const SyncHit& want, const char* where) {
  EXPECT_EQ(got.code_index, want.code_index) << where;
  EXPECT_EQ(got.chip_offset, want.chip_offset) << where;
  EXPECT_EQ(got.message.bits, want.message.bits) << where;
  EXPECT_EQ(got.message.erased_bits, want.message.erased_bits) << where;
}

// The end-to-end property: the batched scan (span overloads AND the cached
// PreparedCodebook path) returns byte-identical SyncHits to the slice-based
// reference oracle on a randomized corpus, for every supported backend,
// across group sizes that under- and over-fill a vector register.
TEST(BatchKernel, BatchedScanMatchesReferenceOracle) {
  for (const SimdBackend backend : supported_backends()) {
    const ScopedBackend scope(backend);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      Rng rng(1000 + seed);
      const std::size_t n = 64 + static_cast<std::size_t>(rng.uniform(140));
      const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform(11));
      const std::size_t bits = 4 + static_cast<std::size_t>(rng.uniform(8));
      const std::vector<SpreadCode> codes = random_codes(rng, m, n);
      const BitVector buffer = planted_buffer(rng, codes, bits, 2);
      const double tau = 0.8;

      const auto want_first = find_first_message_reference(buffer, codes, bits, tau);
      const auto got_first = find_first_message(buffer, codes, bits, tau);
      ASSERT_EQ(got_first.has_value(), want_first.has_value())
          << simd_backend_name(backend) << " seed=" << seed;
      if (want_first) expect_same_hit(*got_first, *want_first, "find_first_message");

      const PreparedCodebook codebook{codes};
      SyncHit prepared_hit;
      const bool prepared_found =
          find_first_message_into(buffer, codebook, bits, tau, 0, prepared_hit);
      ASSERT_EQ(prepared_found, want_first.has_value());
      if (want_first) expect_same_hit(prepared_hit, *want_first, "find_first_message_into");

      const auto want_all = find_all_messages_reference(buffer, codes, bits, tau);
      const auto got_all = find_all_messages(buffer, codes, bits, tau);
      const auto got_all_prepared = find_all_messages(buffer, codebook, bits, tau);
      ASSERT_EQ(got_all.size(), want_all.size());
      ASSERT_EQ(got_all_prepared.size(), want_all.size());
      for (std::size_t i = 0; i < want_all.size(); ++i) {
        expect_same_hit(got_all[i], want_all[i], "find_all_messages");
        expect_same_hit(got_all_prepared[i], want_all[i], "find_all_messages(prepared)");
      }
    }
  }
}

// Non-zero start offsets must skip earlier hits exactly as the reference
// does — the batched search begins mid-buffer at arbitrary alignment.
TEST(BatchKernel, StartOffsetMatchesReference) {
  Rng rng(16);
  const std::size_t n = 128;
  const std::size_t bits = 6;
  const std::vector<SpreadCode> codes = random_codes(rng, 5, n);
  const BitVector buffer = planted_buffer(rng, codes, bits, 3);
  for (const std::size_t start : {0UL, 1UL, 37UL, 64UL, 101UL, 300UL}) {
    const auto want = find_first_message_reference(buffer, codes, bits, 0.8, start);
    const auto got = find_first_message(buffer, codes, bits, 0.8, start);
    ASSERT_EQ(got.has_value(), want.has_value()) << "start=" << start;
    if (want) expect_same_hit(*got, *want, "start offset");
  }
}

// TSan target (CI runs -R BatchKernel under ThreadSanitizer): many threads
// scan one shared PreparedCodebook whose batch tables build lazily on first
// use — the double-checked build and the read-only SoA scans must be
// race-free.
TEST(BatchKernel, ConcurrentScansOverSharedCodebook) {
  Rng rng(17);
  const std::size_t n = 128;
  const std::size_t bits = 8;
  const std::vector<SpreadCode> codes = random_codes(rng, 6, n);
  const PreparedCodebook codebook{codes};
  const BitVector buffer = planted_buffer(rng, codes, bits, 2);
  const auto want = find_first_message_reference(buffer, codes, bits, 0.8);
  ASSERT_TRUE(want.has_value());

  std::vector<std::thread> threads;
  std::vector<SyncHit> hits(8);
  std::vector<int> found(8, 0);
  threads.reserve(hits.size());
  for (std::size_t t = 0; t < hits.size(); ++t) {
    threads.emplace_back([&, t] {
      found[t] = find_first_message_into(buffer, codebook, bits, 0.8, 0, hits[t]) ? 1 : 0;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < hits.size(); ++t) {
    ASSERT_EQ(found[t], 1) << "thread " << t;
    expect_same_hit(hits[t], *want, "concurrent scan");
  }
}

}  // namespace
}  // namespace jrsnd::dsss
