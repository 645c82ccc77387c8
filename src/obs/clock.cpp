#include "obs/clock.hpp"

#include <atomic>
#include <chrono>

#include "common/cpu_features.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace jrsnd::obs {

namespace {

std::atomic<std::uint64_t> g_calibrations{0};

struct ClockState {
  ClockCalibration info;
  std::uint64_t origin_steady = 0;  ///< steady_ns() at clock_ns() == 0
#if defined(__x86_64__)
  std::uint64_t origin_tsc = 0;     ///< TSC at clock_ns() == base_ns
  std::uint64_t base_ns = 0;
  std::uint64_t ns_per_tick_q32 = 0;  ///< ns_per_tick in 32.32 fixed point
#endif
};

#if defined(__x86_64__)
__extension__ using Uint128 = unsigned __int128;  // GCC/Clang builtin on x86-64

/// The calibration window. A steady read costs tens of nanoseconds, so the
/// ratio's error stays near 1e-4 — and the whole calibration under 2 ms.
constexpr std::uint64_t kCalibrationWindowNs = 1'000'000;

struct TscPair {
  std::uint64_t tsc = 0;
  std::uint64_t ns = 0;
};

/// One (TSC, steady) reading: of a few steady reads, each bracketed by two
/// TSC reads, the one with the tightest bracket, paired with its midpoint.
TscPair read_pair() noexcept {
  TscPair best;
  std::uint64_t best_gap = ~std::uint64_t{0};
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t before = __rdtsc();
    const std::uint64_t ns = steady_ns();
    const std::uint64_t after = __rdtsc();
    if (after - before < best_gap) {
      best_gap = after - before;
      best = {before + best_gap / 2, ns};
    }
  }
  return best;
}
#endif

ClockState calibrate() noexcept {
  g_calibrations.fetch_add(1, std::memory_order_relaxed);
  ClockState s;
  s.origin_steady = steady_ns();
#if defined(__x86_64__)
  if (cpu_features().invariant_tsc) {
    const TscPair a = read_pair();
    TscPair b = read_pair();
    while (b.ns - a.ns < kCalibrationWindowNs) b = read_pair();
    if (b.tsc > a.tsc) {
      const double ns_per_tick =
          static_cast<double>(b.ns - a.ns) / static_cast<double>(b.tsc - a.tsc);
      s.info.tsc = true;
      s.info.ns_per_tick = ns_per_tick;
      s.ns_per_tick_q32 = static_cast<std::uint64_t>(ns_per_tick * 4294967296.0 + 0.5);
      s.origin_tsc = b.tsc;
      s.base_ns = b.ns - s.origin_steady;
    }
  }
#endif
  return s;
}

const ClockState& state() noexcept {
  static const ClockState s = calibrate();
  return s;
}

std::uint64_t read_ns(const ClockState& s) noexcept {
#if defined(__x86_64__)
  if (s.info.tsc) {
    // A core whose TSC trails the calibrating core's by a few ticks reads
    // just before the origin: clamp that to the origin instead of wrapping.
    const auto ticks = static_cast<std::int64_t>(__rdtsc() - s.origin_tsc);
    const auto scaled = static_cast<Uint128>(ticks > 0 ? ticks : 0) * s.ns_per_tick_q32;
    return s.base_ns + static_cast<std::uint64_t>(scaled >> 32);
  }
#endif
  return steady_ns() - s.origin_steady;
}

}  // namespace

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t clock_ns() noexcept {
  std::uint64_t ns = read_ns(state());
  // Per-thread floor: a migration between cores with slightly skewed TSCs
  // must not step a thread's time back (regions subtract two reads).
  thread_local std::uint64_t t_last = 0;
  if (ns < t_last) ns = t_last;
  t_last = ns;
  return ns;
}

const ClockCalibration& clock_calibration() noexcept { return state().info; }

std::uint64_t clock_calibrations() noexcept {
  return g_calibrations.load(std::memory_order_relaxed);
}

}  // namespace jrsnd::obs
