// Per-thread registry overrides and snapshot absorption — the obs half of
// the parallel Monte-Carlo engine. Metric names are unique to this file so
// the shared process registry never couples these tests to their siblings.
#include "obs/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace jrsnd::obs {
namespace {

class ScopedRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { set_metrics_enabled(true); }
  void TearDown() override { set_metrics_enabled(false); }
};

TEST_F(ScopedRegistryTest, OverrideRedirectsActiveRegistry) {
  EXPECT_EQ(&active_registry(), &registry());
  MetricsRegistry scratch;
  {
    const ScopedMetricsRegistry guard(&scratch);
    EXPECT_EQ(&active_registry(), &scratch);
  }
  EXPECT_EQ(&active_registry(), &registry());
}

TEST_F(ScopedRegistryTest, NullOverrideIsANoop) {
  const std::uint64_t before = registry_generation();
  const ScopedMetricsRegistry guard(nullptr);
  EXPECT_EQ(&active_registry(), &registry());
  EXPECT_EQ(registry_generation(), before);
}

TEST_F(ScopedRegistryTest, OverridesNestAndRestore) {
  MetricsRegistry outer;
  MetricsRegistry inner;
  const ScopedMetricsRegistry g1(&outer);
  {
    const ScopedMetricsRegistry g2(&inner);
    EXPECT_EQ(&active_registry(), &inner);
  }
  EXPECT_EQ(&active_registry(), &outer);
}

TEST_F(ScopedRegistryTest, GenerationBumpsOnInstallAndRemove) {
  MetricsRegistry scratch;
  const std::uint64_t g0 = registry_generation();
  {
    const ScopedMetricsRegistry guard(&scratch);
    EXPECT_GT(registry_generation(), g0);
  }
  EXPECT_GT(registry_generation(), g0 + 1);
}

TEST_F(ScopedRegistryTest, MacrosFollowTheOverride) {
  MetricsRegistry scratch;
  {
    const ScopedMetricsRegistry guard(&scratch);
    JRSND_COUNT("test.scoped.macro.count");
    JRSND_COUNT("test.scoped.macro.count");
    JRSND_GAUGE_MAX("test.scoped.macro.gauge", 0.5);
  }
  // Same sites after the override is gone: the generation bump forces the
  // cached handles to re-resolve against the process registry.
  JRSND_COUNT("test.scoped.macro.count");
  JRSND_GAUGE_MAX("test.scoped.macro.gauge", 2.0);

  EXPECT_EQ(scratch.counter("test.scoped.macro.count").value(), 2u);
  EXPECT_DOUBLE_EQ(scratch.gauge("test.scoped.macro.gauge").value(), 0.5);
  EXPECT_EQ(registry().counter("test.scoped.macro.count").value(), 1u);
  EXPECT_DOUBLE_EQ(registry().gauge("test.scoped.macro.gauge").value(), 2.0);
}

TEST_F(ScopedRegistryTest, OverrideIsPerThread) {
  MetricsRegistry scratch;
  const ScopedMetricsRegistry guard(&scratch);
  bool other_thread_saw_global = false;
  std::thread probe([&] { other_thread_saw_global = (&active_registry() == &registry()); });
  probe.join();
  EXPECT_TRUE(other_thread_saw_global);
  EXPECT_EQ(&active_registry(), &scratch);
}

TEST_F(ScopedRegistryTest, AbsorbAddsCounters) {
  MetricsRegistry target;
  target.counter("test.absorb.count").inc(5);

  MetricsRegistry scratch;
  scratch.counter("test.absorb.count").inc(3);
  scratch.counter("test.absorb.fresh").inc(7);

  target.absorb(scratch.snapshot());

  EXPECT_EQ(target.counter("test.absorb.count").value(), 8u);
  EXPECT_EQ(target.counter("test.absorb.fresh").value(), 7u);
}

TEST_F(ScopedRegistryTest, AbsorbKeepsGaugeHighWater) {
  MetricsRegistry target;
  target.gauge("test.absorb.gauge").set(10.0);

  MetricsRegistry low;
  low.gauge("test.absorb.gauge").set(4.0);
  target.absorb(low.snapshot());
  EXPECT_DOUBLE_EQ(target.gauge("test.absorb.gauge").value(), 10.0);

  MetricsRegistry high;
  high.gauge("test.absorb.gauge").set(25.0);
  target.absorb(high.snapshot());
  EXPECT_DOUBLE_EQ(target.gauge("test.absorb.gauge").value(), 25.0);
}

TEST_F(ScopedRegistryTest, AbsorbedTotalsEqualSingleRegistry) {
  // The parallel-engine contract in miniature: N scratch registries absorbed
  // into one equal the same operations applied to a single registry.
  MetricsRegistry expected;
  MetricsRegistry merged;
  for (int w = 0; w < 4; ++w) {
    MetricsRegistry scratch;
    for (int i = 0; i <= w; ++i) {
      expected.counter("test.fold.count").inc(2);
      scratch.counter("test.fold.count").inc(2);
      const double depth = static_cast<double>((w * 7 + i * 3) % 5);
      expected.gauge("test.fold.highwater").update_max(depth);
      scratch.gauge("test.fold.highwater").update_max(depth);
    }
    merged.absorb(scratch.snapshot());
  }
  EXPECT_EQ(merged.counter("test.fold.count").value(),
            expected.counter("test.fold.count").value());
  EXPECT_DOUBLE_EQ(merged.gauge("test.fold.highwater").value(),
                   expected.gauge("test.fold.highwater").value());
}

}  // namespace
}  // namespace jrsnd::obs
