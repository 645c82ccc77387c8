// The process clock (obs/clock.hpp): agreement with steady_clock, per-thread
// monotonicity, one calibration per process, the steady_clock read path,
// and the callers that share it (wall_seconds, the profiling fallback).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/cpu_features.hpp"
#include "obs/clock.hpp"
#include "obs/prof/perf_counters.hpp"
#include "obs/span.hpp"

namespace jrsnd::obs {
namespace {

TEST(ObsClock, AgreesWithSteadyClockOverABusySpan) {
  // Each attempt busy-waits 25 ms between two bracketed reads; a preempted
  // attempt can only widen the gap, so the best of three is the clock's.
  double best_error = 1.0;
  for (int attempt = 0; attempt < 3 && best_error > 0.01; ++attempt) {
    const std::uint64_t steady0 = steady_ns();
    const std::uint64_t clock0 = clock_ns();
    while (steady_ns() - steady0 < 25'000'000) {
    }
    const std::uint64_t clock1 = clock_ns();
    const std::uint64_t steady1 = steady_ns();
    const double steady_span = static_cast<double>(steady1 - steady0);
    const double clock_span = static_cast<double>(clock1 - clock0);
    best_error = std::min(best_error, std::abs(clock_span - steady_span) / steady_span);
  }
  EXPECT_LE(best_error, 0.01) << "tsc=" << clock_calibration().tsc
                              << " ns_per_tick=" << clock_calibration().ns_per_tick;
}

TEST(ObsClock, NeverGoesBackwardsOnOneThread) {
  const auto check = [] {
    std::uint64_t backwards = 0;
    std::uint64_t last = clock_ns();
    for (int i = 0; i < 200'000; ++i) {
      const std::uint64_t now = clock_ns();
      if (now < last) ++backwards;
      last = now;
    }
    return backwards;
  };
  EXPECT_EQ(check(), 0u);
  std::uint64_t other = 1;
  std::thread worker([&] { other = check(); });
  worker.join();
  EXPECT_EQ(other, 0u);
}

TEST(ObsClock, CalibratesOncePerProcess) {
  (void)clock_ns();
  const ClockCalibration& first = clock_calibration();
  const double ratio = first.ns_per_tick;
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([] {
      for (int i = 0; i < 1000; ++i) (void)clock_ns();
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(clock_calibrations(), 1u);
  EXPECT_EQ(&clock_calibration(), &first);
  EXPECT_EQ(clock_calibration().ns_per_tick, ratio);
}

TEST(ObsClock, ReadsTheTscExactlyWhenItIsInvariant) {
  const ClockCalibration& cal = clock_calibration();
#if defined(__x86_64__)
  EXPECT_EQ(cal.tsc, cpu_features().invariant_tsc);
#else
  EXPECT_FALSE(cal.tsc);
#endif
  if (cal.tsc) {
    // A TSC ticks between 100 MHz and 10 GHz on any host this runs on.
    EXPECT_GT(cal.ns_per_tick, 0.1);
    EXPECT_LT(cal.ns_per_tick, 10.0);
  } else {
    EXPECT_EQ(cal.ns_per_tick, 1.0);
  }
}

TEST(ObsClock, SteadyPathMatchesSteadyClock) {
  const auto chrono_ns = [] {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
  };
  const std::uint64_t before = chrono_ns();
  const std::uint64_t read = steady_ns();
  const std::uint64_t after = chrono_ns();
  EXPECT_LE(before, read);
  EXPECT_LE(read, after);
  std::uint64_t last = steady_ns();
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t now = steady_ns();
    ASSERT_GE(now, last);
    last = now;
  }
}

TEST(ObsClock, WallSecondsAndTheProfilingFallbackShareIt) {
  const std::uint64_t a = clock_ns();
  const double wall = wall_seconds();
  const std::uint64_t b = clock_ns();
  EXPECT_LE(static_cast<double>(a) * 1e-9, wall);
  EXPECT_GE(static_cast<double>(b) * 1e-9, wall);

  prof::set_prof_backend(prof::ProfBackend::kClockFallback);
  const prof::PerfCounterSet set;
  ASSERT_EQ(set.backend(), prof::ProfBackend::kClockFallback);
  const std::uint64_t c = clock_ns();
  const std::uint64_t region = set.read().task_clock_ns;
  const std::uint64_t d = clock_ns();
  EXPECT_LE(c, region);
  EXPECT_LE(region, d);
}

}  // namespace
}  // namespace jrsnd::obs
