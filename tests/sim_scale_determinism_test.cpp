// Paper-scale determinism: a full run_all() at 2000 nodes must be
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/discovery_sim.hpp"

namespace jrsnd {
namespace {

// Full pipeline at 2000 nodes: run_all() folds the same RunResults in the
// same order no matter how many worker threads execute it, so every Stat is
// bit-identical between JRSND_THREADS=1 and 8.
TEST(ScaleDeterminism, RunAllBitIdenticalAcrossThreadCountsAt2000Nodes) {
  core::ExperimentConfig cfg;
  cfg.params = core::Params::defaults();
  cfg.params.n = 2000;
  cfg.params.field_width = 5000.0;
  cfg.params.field_height = 5000.0;
  cfg.params.runs = 2;
  cfg.base_seed = 1234;
  cfg.jammer = core::JammerKind::Random;
  const core::DiscoverySimulator sim(cfg);

  ASSERT_EQ(setenv("JRSND_THREADS", "1", 1), 0);
  const core::PointResult serial = sim.run_all();
  ASSERT_EQ(setenv("JRSND_THREADS", "8", 1), 0);
  const core::PointResult parallel = sim.run_all();
  ASSERT_EQ(unsetenv("JRSND_THREADS"), 0);

  const auto expect_identical = [](const core::Stat& a, const core::Stat& b,
                                   const char* what) {
    ASSERT_EQ(a.count(), b.count()) << what;
    if (a.count() == 0) return;
    EXPECT_EQ(a.mean(), b.mean()) << what;
    EXPECT_EQ(a.variance(), b.variance()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
  };
  expect_identical(serial.p_dndp, parallel.p_dndp, "p_dndp");
  expect_identical(serial.p_mndp, parallel.p_mndp, "p_mndp");
  expect_identical(serial.p_jrsnd, parallel.p_jrsnd, "p_jrsnd");
  expect_identical(serial.latency_dndp, parallel.latency_dndp, "latency_dndp");
  expect_identical(serial.latency_mndp, parallel.latency_mndp, "latency_mndp");
  expect_identical(serial.latency_jrsnd, parallel.latency_jrsnd, "latency_jrsnd");
  expect_identical(serial.degree, parallel.degree, "degree");
}

}  // namespace
}  // namespace jrsnd
