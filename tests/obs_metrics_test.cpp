#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.hpp"

namespace jrsnd::obs {
namespace {

/// Saves and restores the process-wide enabled flag around each test.
class MetricsEnabledGuard {
 public:
  explicit MetricsEnabledGuard(bool enabled) : before_(metrics_enabled()) {
    set_metrics_enabled(enabled);
  }
  ~MetricsEnabledGuard() { set_metrics_enabled(before_); }

 private:
  bool before_;
};

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddAndHighWater) {
  Gauge g;
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  g.update_max(2.0);  // below current: no change
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  g.update_max(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketsAndAggregates) {
  Histogram h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));

  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (inclusive upper edge)
  h.observe(5.0);    // <= 10
  h.observe(500.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 506.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  const std::vector<std::uint64_t> expected = {2, 1, 0, 1};
  EXPECT_EQ(h.bucket_counts(), expected);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

TEST(Histogram, UnsortedBoundsAreSortedAndDeduped) {
  Histogram h({10.0, 1.0, 10.0});
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 10.0}));
}

TEST(Registry, SameNameReturnsSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("test.counter");
  Counter& b = reg.counter("test.counter");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);

  Histogram& h1 = reg.histogram("test.hist", std::vector<double>{1.0, 2.0});
  Histogram& h2 = reg.histogram("test.hist", std::vector<double>{99.0});
  EXPECT_EQ(&h1, &h2);  // first registration's bounds win
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Registry, SnapshotIsSortedAndResetZeroes) {
  MetricsRegistry reg;
  reg.counter("b.second").inc(2);
  reg.counter("a.first").inc(1);
  reg.gauge("g").set(7.0);
  reg.histogram("h", std::vector<double>{1.0}).observe(0.5);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_FALSE(snap.empty());
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "b.second");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);

  reg.reset();
  const MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(after.counters[0].value, 0u);   // names stay registered
  EXPECT_EQ(after.histograms[0].count, 0u);
}

TEST(Snapshot, MergeAddsCountersAndBucketsKeepsGaugeMax) {
  MetricsRegistry seed1;
  seed1.counter("c").inc(3);
  seed1.gauge("g").set(5.0);
  seed1.histogram("h", std::vector<double>{1.0}).observe(0.5);

  MetricsRegistry seed2;
  seed2.counter("c").inc(4);
  seed2.counter("only2").inc(1);
  seed2.gauge("g").set(2.0);
  seed2.histogram("h", std::vector<double>{1.0}).observe(9.0);

  MetricsSnapshot merged = seed1.snapshot();
  merged.merge(seed2.snapshot());

  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters[0].name, "c");
  EXPECT_EQ(merged.counters[0].value, 7u);
  EXPECT_EQ(merged.counters[1].name, "only2");
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 5.0);  // high-water, not sum
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 2u);
  EXPECT_EQ(merged.histograms[0].buckets, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_DOUBLE_EQ(merged.histograms[0].min, 0.5);
  EXPECT_DOUBLE_EQ(merged.histograms[0].max, 9.0);
}

TEST(Snapshot, MergeKeepsMismatchedHistogramsSideBySide) {
  MetricsRegistry a;
  a.histogram("h", std::vector<double>{1.0}).observe(0.5);
  MetricsRegistry b;
  b.histogram("h", std::vector<double>{2.0, 3.0}).observe(2.5);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.histograms.size(), 2u);  // schema mismatch is not hidden
}

TEST(Snapshot, QuantileAndMean) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", std::vector<double>{1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.observe(1.5);  // all in the (1, 2] bucket
  const HistogramSample s = reg.snapshot().histograms[0];
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);
  const double p50 = s.quantile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_TRUE(std::isnan(HistogramSample{}.quantile(0.5)));
}

TEST(Snapshot, TableAndJsonRender) {
  MetricsRegistry reg;
  reg.counter("c").inc(1);
  reg.gauge("g").set(2.0);
  reg.histogram("h", std::vector<double>{1.0}).observe(0.5);
  const MetricsSnapshot snap = reg.snapshot();

  std::ostringstream table;
  snap.print_table(table);
  EXPECT_NE(table.str().find("c"), std::string::npos);
  EXPECT_NE(table.str().find("histograms"), std::string::npos);

  std::ostringstream json;
  snap.write_json(json);
  EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(json.str().find("\"c\":1"), std::string::npos);
}

TEST(Registry, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.counter("concurrent");
  Histogram& h = reg.histogram("concurrent.h", std::vector<double>{0.5});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(0.25);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Macros, DisabledFlagDropsUpdates) {
  MetricsEnabledGuard guard(false);
  JRSND_COUNT("obs_test.disabled.counter");
  JRSND_OBSERVE("obs_test.disabled.hist", 1.0);
  // The macro short-circuits before touching the registry, so the names were
  // never even registered.
  const MetricsSnapshot snap = registry().snapshot();
  for (const auto& c : snap.counters) EXPECT_NE(c.name, "obs_test.disabled.counter");
  for (const auto& h : snap.histograms) EXPECT_NE(h.name, "obs_test.disabled.hist");
}

TEST(Macros, EnabledFlagRecords) {
  MetricsEnabledGuard guard(true);
  JRSND_COUNT("obs_test.enabled.counter");
  JRSND_COUNT_N("obs_test.enabled.counter", 2);
  EXPECT_EQ(registry().counter("obs_test.enabled.counter").value(), 3u);
  registry().counter("obs_test.enabled.counter").reset();
}

TEST(Macros, PreregisterPublishesCanonicalNamesAsZero) {
  MetricsEnabledGuard guard(true);
  preregister_core_metrics();
  const MetricsSnapshot snap = registry().snapshot();
  bool found_sync = false;
  for (const auto& c : snap.counters) found_sync |= (c.name == "dsss.sync.scans");
  EXPECT_TRUE(found_sync);
}

TEST(Registry, CrossKindNameCollisionThrowsNamingBothKinds) {
  MetricsRegistry reg;
  reg.counter("shared.name");
  // Re-requesting the same name as a different kind must fail loudly (the
  // silent alternative would hand back a second object and split the metric
  // between two maps) and the message must name the conflicting kind.
  try {
    reg.gauge("shared.name");
    FAIL() << "gauge('shared.name') over an existing counter did not throw";
  } catch (const std::logic_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("shared.name"), std::string::npos) << what;
    EXPECT_NE(what.find("counter"), std::string::npos) << what;
    EXPECT_NE(what.find("gauge"), std::string::npos) << what;
  }
  EXPECT_THROW(reg.histogram("shared.name"), std::logic_error);

  reg.gauge("other.kind");
  EXPECT_THROW(reg.counter("other.kind"), std::logic_error);
  reg.histogram("hist.kind");
  EXPECT_THROW(reg.counter("hist.kind"), std::logic_error);
  EXPECT_THROW(reg.gauge("hist.kind"), std::logic_error);

  // Same-kind lookups still return the one shared object.
  EXPECT_EQ(&reg.counter("shared.name"), &reg.counter("shared.name"));
}

}  // namespace
}  // namespace jrsnd::obs
