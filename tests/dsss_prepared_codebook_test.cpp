// PreparedCodebook cache correctness: scans over the cached BatchShiftTable must be
// bit-identical to the slice-based reference oracles at every offset —
// including the resume offsets the recover-and-rescan loop uses — and the
// cache must invalidate exactly when the codes change. The concurrency test
// exercises the lazy double-checked table build from many threads (run under
// the TSan CI job).
#include "dsss/prepared_codebook.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dsss/sliding_window.hpp"
#include "dsss/spreader.hpp"
#include "obs/metrics_registry.hpp"
#include "oracle/dsss_reference.hpp"

namespace jrsnd::dsss {
namespace {

using oracle::find_all_messages_reference;
using oracle::find_first_message_reference;

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng.bernoulli(0.5));
  return v;
}

std::vector<SpreadCode> random_codes(Rng& rng, std::size_t count, std::size_t length) {
  std::vector<SpreadCode> codes;
  for (std::size_t i = 0; i < count; ++i) {
    codes.push_back(SpreadCode::random(rng, length, code_id(static_cast<std::uint32_t>(i))));
  }
  return codes;
}

/// Table builds and cache hits `body` performs, counted in a scratch registry.
struct TableCounts {
  std::uint64_t builds = 0;
  std::uint64_t hits = 0;
};

template <typename Body>
TableCounts count_table_lookups(Body&& body) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry registry;
  {
    const obs::ScopedMetricsRegistry scoped(&registry);
    body();
  }
  return {registry.counter("dsss.prepared.tables.builds").value(),
          registry.counter("dsss.prepared.tables.hits").value()};
}

void expect_same_hit(const std::optional<SyncHit>& got, const std::optional<SyncHit>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got.has_value()) return;
  EXPECT_EQ(got->code_index, want->code_index);
  EXPECT_EQ(got->chip_offset, want->chip_offset);
  EXPECT_EQ(got->message.bits, want->message.bits);
  EXPECT_EQ(got->message.erased_bits, want->message.erased_bits);
}

TEST(PreparedCodebook, ScanMatchesReferenceOnRandomBuffers) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 64 + 32 * static_cast<std::size_t>(rng.uniform(6));  // 64..224
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform(4));
    const std::size_t message_bits = 2 + static_cast<std::size_t>(rng.uniform(5));
    const std::vector<SpreadCode> codes = random_codes(rng, m, n);
    const PreparedCodebook prepared(codes);

    // Half noise, half an embedded genuine message: both sync-miss and
    // sync-hit paths get exercised.
    BitVector buffer = random_bits(rng, static_cast<std::size_t>(rng.uniform(3 * n)));
    if (trial % 2 == 0) {
      const BitVector message = random_bits(rng, message_bits);
      buffer.append(spread(message, codes[static_cast<std::size_t>(rng.uniform(
                                        static_cast<std::uint64_t>(m)))]));
    }
    buffer.append(random_bits(rng, n));

    const double tau = 0.25;
    expect_same_hit(find_first_message(buffer, prepared, message_bits, tau),
                    find_first_message_reference(buffer, codes, message_bits, tau));
  }
}

TEST(PreparedCodebook, ResumeOffsetsMatchReference) {
  // The rescan loop restarts at hit.chip_offset + 1; sweep every start
  // offset and require identity with the reference oracle at each.
  Rng rng(7);
  const std::size_t n = 64;
  const std::size_t message_bits = 3;
  const std::vector<SpreadCode> codes = random_codes(rng, 2, n);
  const PreparedCodebook prepared(codes);

  BitVector buffer = random_bits(rng, 50);
  buffer.append(spread(random_bits(rng, message_bits), codes[1]));
  buffer.append(random_bits(rng, 40));

  for (std::size_t start = 0; start + message_bits * n <= buffer.size(); ++start) {
    expect_same_hit(find_first_message(buffer, prepared, message_bits, 0.25, start),
                    find_first_message_reference(buffer, codes, message_bits, 0.25, start));
  }
}

TEST(PreparedCodebook, FindAllMatchesReference) {
  Rng rng(99);
  const std::size_t n = 64;
  const std::size_t message_bits = 2;
  const std::vector<SpreadCode> codes = random_codes(rng, 3, n);
  const PreparedCodebook prepared(codes);

  BitVector buffer = random_bits(rng, 30);
  buffer.append(spread(random_bits(rng, message_bits), codes[0]));
  buffer.append(random_bits(rng, 17));
  buffer.append(spread(random_bits(rng, message_bits), codes[2]));
  buffer.append(random_bits(rng, n));

  const auto got = find_all_messages(buffer, prepared, message_bits, 0.25);
  const auto want = find_all_messages_reference(buffer, codes, message_bits, 0.25);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].code_index, want[i].code_index);
    EXPECT_EQ(got[i].chip_offset, want[i].chip_offset);
    EXPECT_EQ(got[i].message.bits, want[i].message.bits);
    EXPECT_EQ(got[i].message.erased_bits, want[i].message.erased_bits);
  }
}

TEST(PreparedCodebook, IntoFormMatchesOptionalFormWithReusedHit) {
  Rng rng(5);
  const std::size_t n = 64;
  const std::size_t message_bits = 4;
  const std::vector<SpreadCode> codes = random_codes(rng, 2, n);
  const PreparedCodebook prepared(codes);

  SyncHit reused;  // deliberately carried across iterations
  for (int trial = 0; trial < 10; ++trial) {
    BitVector buffer = random_bits(rng, 20 + static_cast<std::size_t>(rng.uniform(40)));
    buffer.append(spread(random_bits(rng, message_bits), codes[0]));
    buffer.append(random_bits(rng, n));

    const auto want = find_first_message(buffer, prepared, message_bits, 0.25);
    const bool found = find_first_message_into(buffer, prepared, message_bits, 0.25, 0, reused);
    ASSERT_EQ(found, want.has_value());
    if (found) {
      EXPECT_EQ(reused.code_index, want->code_index);
      EXPECT_EQ(reused.chip_offset, want->chip_offset);
      EXPECT_EQ(reused.message.bits, want->message.bits);
      EXPECT_EQ(reused.message.erased_bits, want->message.erased_bits);
    }
  }
}

TEST(PreparedCodebook, AssignIfChangedKeepsTablesForIdenticalCodes) {
  Rng rng(11);
  const std::vector<SpreadCode> codes = random_codes(rng, 3, 128);
  PreparedCodebook prepared(codes);
  EXPECT_EQ(prepared.batch_table().size(), 3u);

  const TableCounts kept = count_table_lookups([&] {
    EXPECT_FALSE(prepared.assign_if_changed(codes));
    EXPECT_EQ(prepared.batch_table().size(), 3u);
  });
  EXPECT_EQ(kept.builds, 0u) << "unchanged codebook must keep the cached table";
  EXPECT_EQ(kept.hits, 1u);

  std::vector<SpreadCode> shrunk(codes.begin(), codes.end() - 1);
  const TableCounts rebuilt = count_table_lookups([&] {
    EXPECT_TRUE(prepared.assign_if_changed(shrunk));
    EXPECT_EQ(prepared.size(), 2u);
    EXPECT_EQ(prepared.batch_table().size(), 2u);
  });
  EXPECT_EQ(rebuilt.builds, 1u);
}

TEST(PreparedCodebook, EmptyCodebookScansFindNothing) {
  const PreparedCodebook empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.code_length(), 0u);
  const BitVector buffer(512);
  EXPECT_FALSE(find_first_message(buffer, empty, 4, 0.3).has_value());
  EXPECT_TRUE(find_all_messages(buffer, empty, 4, 0.3).empty());
}

TEST(PreparedCodebook, ConcurrentScannersShareOneLazyBuild) {
  // Many threads race the first batch_table() build and then scan; TSan verifies
  // the double-checked construction, and every thread must see identical
  // results.
  Rng rng(31);
  const std::size_t n = 128;
  const std::size_t message_bits = 3;
  const std::vector<SpreadCode> codes = random_codes(rng, 4, n);
  const PreparedCodebook prepared(codes);

  BitVector buffer = random_bits(rng, 73);
  buffer.append(spread(random_bits(rng, message_bits), codes[2]));
  buffer.append(random_bits(rng, n));
  const auto want = find_first_message_reference(buffer, codes, message_bits, 0.25);
  ASSERT_TRUE(want.has_value());

  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::vector<int> ok(kThreads, 0);
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const auto got = find_first_message(buffer, prepared, message_bits, 0.25);
      ok[static_cast<std::size_t>(t)] =
          got.has_value() && got->code_index == want->code_index &&
          got->chip_offset == want->chip_offset && got->message.bits == want->message.bits;
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[static_cast<std::size_t>(t)]) << t;
}

TEST(NodeCodebookCache, PrepareRefreshesOnlyOnChange) {
  Rng rng(47);
  const std::vector<SpreadCode> codes = random_codes(rng, 2, 64);
  NodeCodebookCache cache;
  const PreparedCodebook& first = cache.prepare(node_id(3), codes);
  const BatchShiftTable* table = &first.batch_table();

  // Same codes: same entry, same cached table, no rebuild.
  const TableCounts counts = count_table_lookups([&] {
    const PreparedCodebook& again = cache.prepare(node_id(3), codes);
    EXPECT_EQ(&again, &first);
    EXPECT_EQ(&again.batch_table(), table);
  });
  EXPECT_EQ(counts.builds, 0u);

  // Different node: independent entry.
  const PreparedCodebook& other = cache.prepare(node_id(4), codes);
  EXPECT_NE(&other, &first);

  // Changed codes: entry refreshed.
  const std::vector<SpreadCode> changed = random_codes(rng, 3, 64);
  const PreparedCodebook& refreshed = cache.prepare(node_id(3), changed);
  EXPECT_EQ(&refreshed, &first);
  EXPECT_EQ(refreshed.size(), 3u);
}

}  // namespace
}  // namespace jrsnd::dsss
