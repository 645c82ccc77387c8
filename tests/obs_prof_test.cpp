// Profiling layer tests: backend forcing, the clock-fallback contract
// (every API functional without a PMU), PerfRegion accounting through the
// registry/absorb machinery, the simulator's phase regions, and the SIGPROF
// sampling profiler end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <regex>
#include <sstream>
#include <string>

#include "core/discovery_sim.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prof/perf_counters.hpp"
#include "obs/prof/sampling_profiler.hpp"

namespace jrsnd::obs::prof {
namespace {

/// Restores the process-wide prof switches a test flips.
class ProfStateGuard {
 public:
  ProfStateGuard() : enabled_(prof_enabled()), metrics_(metrics_enabled()) {}
  ~ProfStateGuard() {
    set_prof_enabled(enabled_);
    set_metrics_enabled(metrics_);
  }

 private:
  bool enabled_;
  bool metrics_;
};

/// Thread-CPU busywork the sampler and the fallback clock can both see.
std::uint64_t burn_cpu(std::uint64_t iters) {
  volatile std::uint64_t acc = 1;
  for (std::uint64_t i = 0; i < iters; ++i) acc = acc * 2862933555777941757ULL + 3037000493ULL;
  return acc;
}

double gauge_value(MetricsRegistry& reg, const std::string& name) {
  const MetricsSnapshot snap = reg.snapshot();
  for (const GaugeSample& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  return -1.0;
}

std::uint64_t counter_value(MetricsRegistry& reg, const std::string& name) {
  const MetricsSnapshot snap = reg.snapshot();
  for (const CounterSample& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

bool has_counter(MetricsRegistry& reg, const std::string& name) {
  const MetricsSnapshot snap = reg.snapshot();
  return std::any_of(snap.counters.begin(), snap.counters.end(),
                     [&](const CounterSample& c) { return c.name == name; });
}

TEST(ProfBackendTest, ForcedFallbackReportsThroughGauge) {
  ProfStateGuard guard;
  set_prof_backend(ProfBackend::kClockFallback);
  EXPECT_EQ(prof_backend(), ProfBackend::kClockFallback);
  EXPECT_STREQ(backend_name(prof_backend()), "clock_fallback");
  // The gauge publishes even with metrics collection disabled — it says
  // what the recorded numbers mean, so it must always be truthful.
  EXPECT_EQ(gauge_value(registry(), "prof.backend"), 1.0);
}

TEST(ProfBackendTest, PerfEventRequestDegradesGracefully) {
  ProfStateGuard guard;
  // A kPerfEvent request is a probe, not a promise: on hosts without a PMU
  // (this includes most CI containers) it must degrade to the fallback, and
  // the gauge must say which one actually answered.
  set_prof_backend(ProfBackend::kPerfEvent);
  const ProfBackend live = prof_backend();
  EXPECT_TRUE(live == ProfBackend::kPerfEvent || live == ProfBackend::kClockFallback);
  EXPECT_EQ(gauge_value(registry(), "prof.backend"), static_cast<double>(live));
  set_prof_backend(ProfBackend::kClockFallback);
}

TEST(ProfBackendTest, OffBackendDisarmsRegions) {
  ProfStateGuard guard;
  set_prof_backend(ProfBackend::kOff);
  EXPECT_EQ(prof_backend(), ProfBackend::kOff);
  EXPECT_EQ(gauge_value(registry(), "prof.backend"), 0.0);
  set_prof_backend(ProfBackend::kClockFallback);
}

// --- JRSND_PROF_BACKEND / JRSND_FLIGHT_CAPACITY ------------------------------

TEST(EnvKnobs, ProfBackendAcceptsTheThreeNames) {
  EXPECT_EQ(parse_prof_backend("perf"), ProfBackend::kPerfEvent);
  EXPECT_EQ(parse_prof_backend("clock"), ProfBackend::kClockFallback);
  EXPECT_EQ(parse_prof_backend("off"), ProfBackend::kOff);
}

TEST(EnvKnobs, ProfBackendRejectsUnknownName) {
  EXPECT_FALSE(parse_prof_backend("fast").has_value());
}

TEST(EnvKnobs, ProfBackendRejectsOtherCase) {
  EXPECT_FALSE(parse_prof_backend("PERF").has_value());
}

TEST(EnvKnobs, FlightCapacityRejectsTrailingJunk) {
  EXPECT_FALSE(obs::parse_flight_capacity("12k").has_value());
}

TEST(EnvKnobs, FlightCapacityRejectsNonNumber) {
  EXPECT_FALSE(obs::parse_flight_capacity("lots").has_value());
}

TEST(EnvKnobs, FlightCapacityRejectsZeroAndNegative) {
  EXPECT_FALSE(obs::parse_flight_capacity("0").has_value());
  EXPECT_FALSE(obs::parse_flight_capacity("-5").has_value());
}

TEST(EnvKnobs, FlightCapacityAcceptsPositiveCounts) {
  EXPECT_EQ(obs::parse_flight_capacity("1"), 1u);
  EXPECT_EQ(obs::parse_flight_capacity("4096"), 4096u);
}

TEST(PerfCounterSetTest, FallbackMeasuresOnlyTaskClock) {
  ProfStateGuard guard;
  set_prof_backend(ProfBackend::kClockFallback);
  const PerfCounterSet set;  // constructed after the force: binds the fallback
  ASSERT_EQ(set.backend(), ProfBackend::kClockFallback);

  const CounterTotals delta = set.measure([] { (void)burn_cpu(2'000'000); });
  EXPECT_GT(delta.task_clock_ns, 0u) << "thread CPU clock must advance under load";
  // The fallback cannot see the PMU: it invents no cycles, and derived
  // rates refuse to report IPC or miss rates.
  EXPECT_EQ(delta.cycles, 0u);
  EXPECT_EQ(delta.instructions, 0u);
  EXPECT_EQ(delta.ipc(), 0.0);
  EXPECT_EQ(delta.llc_misses_per_kinst(), 0.0);

  const CounterTotals a = set.read();
  (void)burn_cpu(100'000);
  const CounterTotals b = set.read();
  EXPECT_GE(b.task_clock_ns, a.task_clock_ns);
}

TEST(PerfCounterSetTest, TotalsAccumulate) {
  CounterTotals sum;
  CounterTotals part;
  part.cycles = 100;
  part.instructions = 250;
  part.cache_misses = 3;
  part.branch_misses = 4;
  part.task_clock_ns = 50;
  sum += part;
  sum += part;
  EXPECT_EQ(sum.cycles, 200u);
  EXPECT_EQ(sum.instructions, 500u);
  EXPECT_EQ(sum.cache_misses, 6u);
  EXPECT_EQ(sum.branch_misses, 8u);
  EXPECT_EQ(sum.task_clock_ns, 100u);
  EXPECT_DOUBLE_EQ(sum.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(sum.llc_misses_per_kinst(), 12.0);
}

TEST(PerfRegionTest, DisabledRegionRecordsNothing) {
  ProfStateGuard guard;
  set_prof_enabled(false);
  set_metrics_enabled(true);
  MetricsRegistry scratch;
  {
    ScopedMetricsRegistry scoped(&scratch);
    JRSND_PERF_REGION("test.disabled");
    (void)burn_cpu(10'000);
  }
  EXPECT_EQ(counter_value(scratch, "prof.test.disabled.count"), 0u);
}

TEST(PerfRegionTest, RegionsAggregateIntoScopedRegistry) {
  ProfStateGuard guard;
  set_prof_backend(ProfBackend::kClockFallback);
  set_prof_enabled(true);
  set_metrics_enabled(true);
  MetricsRegistry scratch;
  {
    ScopedMetricsRegistry scoped(&scratch);
    for (int i = 0; i < 5; ++i) {
      JRSND_PERF_REGION("test.region");
      (void)burn_cpu(200'000);
    }
  }
  EXPECT_EQ(counter_value(scratch, "prof.test.region.count"), 5u);
  EXPECT_GT(counter_value(scratch, "prof.test.region.task_clock_ns"), 0u);
  // The fallback measures no PMU events, so it records none: an unmeasured
  // value is absent, never a 0 or an estimate.
  for (const char* pmu : {"cycles", "instructions", "cache_misses", "branch_misses"}) {
    EXPECT_FALSE(has_counter(scratch, std::string("prof.test.region.") + pmu)) << pmu;
  }
  // Scoped isolation: nothing leaked into the process registry.
  EXPECT_EQ(counter_value(registry(), "prof.test.region.count"), 0u);

  // ...and the standard absorb path folds the totals into another registry
  // exactly (the run_all per-thread merge).
  MetricsRegistry merged;
  merged.absorb(scratch.snapshot());
  EXPECT_EQ(counter_value(merged, "prof.test.region.count"), 5u);
}

TEST(PerfRegionTest, NestedRegionsAttributeInclusively) {
  ProfStateGuard guard;
  set_prof_backend(ProfBackend::kClockFallback);
  set_prof_enabled(true);
  set_metrics_enabled(true);
  MetricsRegistry scratch;
  {
    ScopedMetricsRegistry scoped(&scratch);
    JRSND_PERF_REGION("test.outer");
    for (int i = 0; i < 3; ++i) {
      JRSND_PERF_REGION("test.inner");
      (void)burn_cpu(200'000);
    }
  }
  EXPECT_EQ(counter_value(scratch, "prof.test.outer.count"), 1u);
  EXPECT_EQ(counter_value(scratch, "prof.test.inner.count"), 3u);
  // Inclusive attribution: the outer region covers its nested children.
  EXPECT_GE(counter_value(scratch, "prof.test.outer.task_clock_ns"),
            counter_value(scratch, "prof.test.inner.task_clock_ns"));
}

// run_once times its phases as PerfRegions: one sim.run region enclosing
// sim.world, sim.dndp, sim.mndp and sim.rates, each entered exactly once per
// run, and nothing at all while profiling is off.
TEST(PerfRegionTest, RunOnceRecordsEveryPhaseOnceInsideRun) {
  ProfStateGuard guard;
  set_prof_backend(ProfBackend::kClockFallback);
  set_metrics_enabled(true);
  core::ExperimentConfig cfg;
  cfg.params = core::Params::defaults();
  cfg.params.n = 60;
  const core::DiscoverySimulator sim(cfg);
  const char* const phases[] = {"world", "dndp", "mndp", "rates"};

  MetricsRegistry off;
  {
    ScopedMetricsRegistry scoped(&off);
    set_prof_enabled(false);
    (void)sim.run_once(3);
  }
  EXPECT_EQ(counter_value(off, "prof.sim.run.count"), 0u);
  for (const char* phase : phases) {
    EXPECT_EQ(counter_value(off, std::string("prof.sim.") + phase + ".count"), 0u) << phase;
  }

  MetricsRegistry on;
  {
    ScopedMetricsRegistry scoped(&on);
    set_prof_enabled(true);
    (void)sim.run_once(3);
  }
  EXPECT_EQ(counter_value(on, "prof.sim.run.count"), 1u);
  const std::uint64_t run_ns = counter_value(on, "prof.sim.run.task_clock_ns");
  EXPECT_GT(run_ns, 0u);
  for (const char* phase : phases) {
    const std::string stem = std::string("prof.sim.") + phase;
    EXPECT_EQ(counter_value(on, stem + ".count"), 1u) << phase;
    EXPECT_GE(run_ns, counter_value(on, stem + ".task_clock_ns")) << phase;
  }
}

TEST(SamplingProfilerTest, CapturesAndDumpsFoldedStacks) {
  ASSERT_FALSE(profiler_running());
  ProfilerOptions options;
  options.hz = 997;  // dense sampling keeps this test fast
  ASSERT_TRUE(profiler_start(options));
  EXPECT_TRUE(profiler_running());
  EXPECT_FALSE(profiler_start(options)) << "double start must be refused";

  // Burn thread CPU until samples land (ITIMER_PROF counts process CPU
  // time, so a busy loop is guaranteed to accumulate ticks).
  for (int spin = 0; spin < 20'000 && profiler_samples() == 0; ++spin) {
    (void)burn_cpu(100'000);
  }
  profiler_stop();
  EXPECT_FALSE(profiler_running());
  ASSERT_GT(profiler_samples(), 0u);

  std::ostringstream folded;
  const std::size_t stacks = dump_folded(folded);
  EXPECT_GT(stacks, 0u);
  // Every folded line is "frame(;frame)* count": flamegraph.pl / inferno
  // input. Frames contain no spaces or semicolons (the symbolizer replaces
  // both), and the count is a positive integer.
  const std::regex line_re(R"(^[^ ;]+(;[^ ;]+)* [1-9][0-9]*$)");
  std::istringstream lines(folded.str());
  std::string line;
  std::size_t parsed = 0;
  std::uint64_t total_count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad folded line: " << line;
    total_count += std::stoull(line.substr(line.rfind(' ') + 1));
    ++parsed;
  }
  EXPECT_EQ(parsed, stacks);
  EXPECT_LE(total_count, profiler_samples());
  EXPECT_GT(total_count, 0u);

  // Stopped-profiler dump is idempotent and the counters survive the dump.
  std::ostringstream again;
  EXPECT_EQ(dump_folded(again), stacks);
}

TEST(SamplingProfilerTest, RestartRecyclesRings) {
  ProfilerOptions options;
  options.hz = 997;
  ASSERT_TRUE(profiler_start(options));
  for (int spin = 0; spin < 20'000 && profiler_samples() == 0; ++spin) {
    (void)burn_cpu(100'000);
  }
  profiler_stop();
  const std::uint64_t first = profiler_samples();
  ASSERT_GT(first, 0u);

  // A second session starts from zero — stale samples must not bleed in.
  ASSERT_TRUE(profiler_start(options));
  profiler_stop();
  EXPECT_LE(profiler_samples(), first);
}

TEST(SamplingProfilerTest, EveryApiIsSafeWhileStopped) {
  // The whole surface must be callable with no session at all (the
  // fallback-environment contract: never crash, degrade to empty results).
  EXPECT_FALSE(profiler_running());
  profiler_stop();  // idempotent no-op
  std::ostringstream os;
  (void)dump_folded(os);  // dumps whatever the last session left, or nothing
  (void)profiler_samples();
  (void)profiler_dropped();
}

}  // namespace
}  // namespace jrsnd::obs::prof
