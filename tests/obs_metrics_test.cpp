#include <gtest/gtest.h>

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

TEST(Registry, SameNameReturnsSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("test.counter");
  Counter& b = reg.counter("test.counter");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(&reg.gauge("test.gauge"), &reg.gauge("test.gauge"));
}

TEST(Registry, SnapshotIsSortedAndResetZeroes) {
  MetricsRegistry reg;
  reg.counter("b.second").inc(2);
  reg.counter("a.first").inc(1);
  reg.gauge("g").set(7.0);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_FALSE(snap.empty());
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "b.second");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 7.0);

  reg.reset();
  const MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(after.counters[0].value, 0u);  // names stay registered
  EXPECT_DOUBLE_EQ(after.gauges[0].value, 0.0);
}

TEST(Snapshot, TableAndJsonRender) {
  MetricsRegistry reg;
  reg.counter("c").inc(1);
  reg.gauge("g").set(2.0);
  const MetricsSnapshot snap = reg.snapshot();

  std::ostringstream table;
  snap.print_table(table);
  EXPECT_NE(table.str().find("counters:\n  c "), std::string::npos) << table.str();
  EXPECT_NE(table.str().find("gauges:\n  g "), std::string::npos) << table.str();

  std::ostringstream json;
  snap.write_json(json);
  EXPECT_EQ(json.str(), "{\"counters\":{\"c\":1},\"gauges\":{\"g\":2}}");
}

TEST(Registry, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.counter("concurrent");
  Gauge& g = reg.gauge("concurrent.g");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &g] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
}

TEST(Macros, DisabledFlagDropsUpdates) {
  MetricsEnabledGuard guard(false);
  JRSND_COUNT("obs_test.disabled.counter");
  JRSND_GAUGE_MAX("obs_test.disabled.gauge", 1.0);
  // The macro short-circuits before touching the registry, so the names were
  // never even registered.
  const MetricsSnapshot snap = registry().snapshot();
  for (const auto& c : snap.counters) EXPECT_NE(c.name, "obs_test.disabled.counter");
  for (const auto& g : snap.gauges) EXPECT_NE(g.name, "obs_test.disabled.gauge");
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
  (void)reg.counter("shared.name");
  // Re-requesting the same name as a different kind must fail loudly (the
  // silent alternative would hand back a second object and split the metric
  // between two maps) and the message must name the conflicting kind.
  try {
    (void)reg.gauge("shared.name");
    FAIL() << "gauge('shared.name') over an existing counter did not throw";
  } catch (const std::logic_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("shared.name"), std::string::npos) << what;
    EXPECT_NE(what.find("counter"), std::string::npos) << what;
    EXPECT_NE(what.find("gauge"), std::string::npos) << what;
  }

  (void)reg.gauge("other.kind");
  EXPECT_THROW((void)reg.counter("other.kind"), std::logic_error);

  // Same-kind lookups still return the one shared object.
  EXPECT_EQ(&reg.counter("shared.name"), &reg.counter("shared.name"));
}

}  // namespace
}  // namespace jrsnd::obs
