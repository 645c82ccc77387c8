// The parallel Monte-Carlo engine must be invisible in the results: run_all()
// under JRSND_THREADS=8 produces bit-identical PointResults to JRSND_THREADS=1
// (seed-ordered reduction), and per-thread scratch metrics fold back into the
// same totals a serial run records.
#include "core/discovery_sim.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "obs/metrics_registry.hpp"

namespace jrsnd::core {
namespace {

ExperimentConfig parallel_config() {
  ExperimentConfig cfg;
  cfg.params = Params::defaults();
  cfg.params.n = 150;
  cfg.params.m = 20;
  cfg.params.l = 15;
  cfg.params.q = 20;  // nonzero so jammer/compromise counters fire
  cfg.params.field_width = 1500.0;
  cfg.params.field_height = 1500.0;
  cfg.params.runs = 8;
  cfg.base_seed = 42;
  cfg.jammer = JammerKind::Random;
  return cfg;
}

void set_threads(const char* value) { ASSERT_EQ(setenv("JRSND_THREADS", value, 1), 0); }

/// Exact (bit-level) Stat equality: both paths must fold the same RunResults
/// in the same order, so even Welford's variance matches to the last bit.
void expect_identical(const Stat& a, const Stat& b, const char* what) {
  ASSERT_EQ(a.count(), b.count()) << what;
  if (a.count() == 0) return;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

TEST(ParallelSim, RunAllBitIdenticalAcrossThreadCounts) {
  const DiscoverySimulator sim(parallel_config());

  set_threads("1");
  const PointResult serial = sim.run_all();
  set_threads("8");
  const PointResult parallel = sim.run_all();
  ASSERT_EQ(unsetenv("JRSND_THREADS"), 0);

  expect_identical(serial.p_dndp, parallel.p_dndp, "p_dndp");
  expect_identical(serial.p_mndp, parallel.p_mndp, "p_mndp");
  expect_identical(serial.p_mndp_conditional, parallel.p_mndp_conditional, "p_mndp_conditional");
  expect_identical(serial.p_jrsnd, parallel.p_jrsnd, "p_jrsnd");
  expect_identical(serial.latency_dndp, parallel.latency_dndp, "latency_dndp");
  expect_identical(serial.latency_mndp, parallel.latency_mndp, "latency_mndp");
  expect_identical(serial.latency_jrsnd, parallel.latency_jrsnd, "latency_jrsnd");
  expect_identical(serial.degree, parallel.degree, "degree");
  expect_identical(serial.compromised_codes, parallel.compromised_codes, "compromised_codes");
}

TEST(ParallelSim, MetricsTotalsMatchSerial) {
  const DiscoverySimulator sim(parallel_config());
  obs::set_metrics_enabled(true);

  obs::registry().reset();
  set_threads("1");
  (void)sim.run_all();
  const obs::MetricsSnapshot serial = obs::registry().snapshot();

  obs::registry().reset();
  set_threads("8");
  (void)sim.run_all();
  const obs::MetricsSnapshot parallel = obs::registry().snapshot();

  obs::set_metrics_enabled(false);
  ASSERT_EQ(unsetenv("JRSND_THREADS"), 0);

  // Counters are deterministic per seed, so absorbed per-thread scratch
  // registries must sum to exactly the serial totals.
  ASSERT_EQ(serial.counters.size(), parallel.counters.size());
  for (std::size_t i = 0; i < serial.counters.size(); ++i) {
    EXPECT_EQ(serial.counters[i].name, parallel.counters[i].name);
    EXPECT_EQ(serial.counters[i].value, parallel.counters[i].value)
        << serial.counters[i].name;
  }
}

TEST(ParallelSim, SerialEnvValueRestoresHistoricalPath) {
  // Sanity: with the env pinned to 1, run_all still works and matches a
  // second identical invocation (pure determinism, no pool involved).
  const DiscoverySimulator sim(parallel_config());
  set_threads("1");
  const PointResult a = sim.run_all();
  const PointResult b = sim.run_all();
  ASSERT_EQ(unsetenv("JRSND_THREADS"), 0);
  expect_identical(a.p_jrsnd, b.p_jrsnd, "p_jrsnd");
  expect_identical(a.latency_dndp, b.latency_dndp, "latency_dndp");
}

}  // namespace
}  // namespace jrsnd::core
