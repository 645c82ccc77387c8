// The one process-wide clock (docs/observability.md "Clock").
//
// Every elapsed-time read in the library goes through clock_ns(): span and
// flight-recorder wall stamps through wall_seconds(), profiling regions
// through the PerfCounterSet clock fallback. So a region's time, a span's
// `wall_us` and a flight record's `wall_s` are differences on one timeline.
//
// Read path, fixed at the process's first read:
//   * x86-64 with an invariant TSC (CpuFeatures::invariant_tsc): one rdtsc,
//     scaled by a ticks-to-nanoseconds ratio calibrated once against
//     steady_clock (CLOCK_MONOTONIC) over about 1 ms;
//   * everywhere else: steady_clock.
// clock.cpp is the only translation unit under src/ that reads a raw clock;
// CI's "One clock" step holds that.
#pragma once

#include <cstdint>

namespace jrsnd::obs {

/// Nanoseconds since the clock's calibration (the process's first read).
/// Never goes backwards on one thread.
[[nodiscard]] std::uint64_t clock_ns() noexcept;

/// How clock_ns() reads, resolved once per process on its first call.
struct ClockCalibration {
  bool tsc = false;          ///< scaled rdtsc; false = steady_clock
  double ns_per_tick = 1.0;  ///< the calibrated ratio (1 on steady_clock)
};

/// The calibration clock_ns() reads through (calibrating on first use).
[[nodiscard]] const ClockCalibration& clock_calibration() noexcept;

/// How many times this process has calibrated the clock: 1 once anything
/// has read it, and never more.
[[nodiscard]] std::uint64_t clock_calibrations() noexcept;

/// steady_clock in nanoseconds on its own epoch: the fallback read path and
/// the calibration's reference.
[[nodiscard]] std::uint64_t steady_ns() noexcept;

}  // namespace jrsnd::obs
