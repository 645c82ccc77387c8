// Scoped hardware-counter profiling (docs/performance.md "Profiling").
//
// A PerfCounterSet owns one thread's counter file descriptors (perf_event_open
// with pid = self, cpu = any: cycles, instructions, cache-misses,
// branch-misses, task-clock). A PerfRegion reads the set on entry and exit and
// accumulates the inclusive delta into `prof.<name>.*` counters of the active
// metrics registry — which means per-thread scratch registries and the
// run_all() absorb machinery attribute cycles per sweep point with no extra
// plumbing.
//
// Backends, resolved once per process (forceable via JRSND_PROF_BACKEND or
// set_prof_backend):
//   * kPerfEvent    — real hardware counters. Requires a PMU and a
//                     perf_event_paranoid level that admits self-profiling.
//   * kClockFallback — the process clock, obs::clock_ns() (obs/clock.hpp:
//                     a calibrated TSC read, or the monotonic clock). Only
//                     task_clock_ns is measured, and it is the region's
//                     elapsed time on its thread — time the thread spent
//                     descheduled inside the region counts too. Regions
//                     record no cycle, instruction or miss counters at all,
//                     so nothing unmeasured reads as 0. Containers, VMs
//                     without vPMU, and non-Linux land here.
// Every API below stays callable under either backend — callers never need
// to know which one is live; the `prof.backend` gauge (2 = perf_event,
// 1 = clock fallback, 0 = off) says which numbers mean what.
//
// Profiling is OFF by default: a disabled JRSND_PERF_REGION site costs one
// inline relaxed atomic load, and the transmit hot path stays
// zero-allocation (the perf_alloc audit covers an instrumented path). An
// armed region under the clock fallback costs two clock_ns() reads.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>

#include "obs/metrics_registry.hpp"

namespace jrsnd::obs::prof {

enum class ProfBackend : std::uint8_t { kOff = 0, kClockFallback = 1, kPerfEvent = 2 };

[[nodiscard]] const char* backend_name(ProfBackend backend) noexcept;

/// The backend counter reads resolve to. Lazily probed on first use: tries
/// perf_event_open, degrades to the clock fallback when the syscall is
/// unavailable (ENOENT without a PMU, EACCES under perf_event_paranoid,
/// ENOSYS in seccomp'd containers). JRSND_PROF_BACKEND=perf|clock forces a
/// backend before the probe runs; set_prof_backend overrides at runtime.
[[nodiscard]] ProfBackend prof_backend();

/// The JRSND_PROF_BACKEND parse: "perf" | "clock" | "off", else nullopt
/// (the probe then decides, after a warning).
[[nodiscard]] std::optional<ProfBackend> parse_prof_backend(std::string_view text) noexcept;

/// Forces the backend (tests, benches). kPerfEvent is a *request* — it
/// re-probes and may still degrade to the fallback. Updates the
/// `prof.backend` gauge. Only affects PerfCounterSets created afterwards.
void set_prof_backend(ProfBackend backend);

namespace detail {
extern std::atomic<bool> g_prof_enabled;
}  // namespace detail

/// Region-collection switch, default off (same contract as metrics_enabled:
/// one inline relaxed load per disabled site).
[[nodiscard]] inline bool prof_enabled() noexcept {
  return detail::g_prof_enabled.load(std::memory_order_relaxed);
}
void set_prof_enabled(bool enabled);

/// Accumulated counter values over a measured interval. With the clock
/// fallback only task_clock_ns is measured, as elapsed (not CPU) time: the
/// PMU fields stay 0 and must not be read as "zero misses" (check the set's
/// backend()).
struct CounterTotals {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t task_clock_ns = 0;

  /// Instructions per cycle; 0 when either counter is unavailable.
  [[nodiscard]] double ipc() const noexcept;
  /// LLC misses per thousand instructions; 0 when unavailable.
  [[nodiscard]] double llc_misses_per_kinst() const noexcept;

  CounterTotals& operator+=(const CounterTotals& other) noexcept;
};

/// One thread's counter group. Construction opens the fds (or arms the clock
/// fallback); destruction closes them. Not thread-safe — use one per thread
/// (PerfRegion goes through a thread-local instance automatically).
class PerfCounterSet {
 public:
  PerfCounterSet();
  ~PerfCounterSet();

  PerfCounterSet(const PerfCounterSet&) = delete;
  PerfCounterSet& operator=(const PerfCounterSet&) = delete;

  /// The backend this set actually bound to (a kPerfEvent request can have
  /// degraded at construction).
  [[nodiscard]] ProfBackend backend() const noexcept { return backend_; }

  /// Snapshot of the monotonically increasing raw counters.
  [[nodiscard]] CounterTotals read() const noexcept;

  /// Convenience: read() deltas around a callable.
  template <typename Fn>
  CounterTotals measure(Fn&& fn) const {
    const CounterTotals before = read();
    fn();
    CounterTotals after = read();
    after.cycles -= before.cycles;
    after.instructions -= before.instructions;
    after.cache_misses -= before.cache_misses;
    after.branch_misses -= before.branch_misses;
    after.task_clock_ns -= before.task_clock_ns;
    return after;
  }

  /// This thread's lazily constructed set (what PerfRegion uses).
  [[nodiscard]] static PerfCounterSet& this_thread();

 private:
  ProfBackend backend_ = ProfBackend::kClockFallback;
  int fds_[5] = {-1, -1, -1, -1, -1};  // cycles, instr, cache, branch, task-clock
};

/// Pre-resolved `prof.<name>.*` handles for one region site, revalidated
/// against registry_generation() so scoped scratch registries are honored.
/// The four PMU handles stay null unless this thread's set reads perf_event.
struct RegionMetrics {
  Counter* count = nullptr;
  Counter* cycles = nullptr;
  Counter* instructions = nullptr;
  Counter* cache_misses = nullptr;
  Counter* branch_misses = nullptr;
  Counter* task_clock_ns = nullptr;
  std::uint64_t generation = 0;  // 0 = never resolved
};

/// Resolves (or re-resolves) `cache` for region `name` against the active
/// registry. Allocates only on first resolution per (site, thread, registry
/// generation) — steady-state region exits are allocation-free.
void resolve_region_metrics(std::string_view name, RegionMetrics& cache);

/// RAII scoped counter region. Nests like Span; attribution is inclusive
/// (a nested region's cycles also count toward its enclosing regions).
/// Disarmed (a single inline relaxed load, no call) unless prof_enabled().
class PerfRegion {
 public:
  PerfRegion(const char* name, RegionMetrics& cache) noexcept : name_(name), cache_(cache) {
    if (prof_enabled()) arm();
  }
  ~PerfRegion() {
    if (armed_) record();
  }

  PerfRegion(const PerfRegion&) = delete;
  PerfRegion& operator=(const PerfRegion&) = delete;

  [[nodiscard]] bool armed() const noexcept { return armed_; }

 private:
  void arm() noexcept;
  void record() noexcept;

  const char* name_;
  RegionMetrics& cache_;
  CounterTotals start_{};
  bool armed_ = false;
};

}  // namespace jrsnd::obs::prof

/// Scoped counter region with a per-site thread-local handle cache. `name`
/// must be a string literal. Costs one relaxed load when profiling is off.
#define JRSND_PERF_REGION(name)                                                      \
  static thread_local ::jrsnd::obs::prof::RegionMetrics JRSND_OBS_CONCAT(            \
      jrsnd_prof_rm_, __LINE__);                                                     \
  ::jrsnd::obs::prof::PerfRegion JRSND_OBS_CONCAT(jrsnd_prof_region_, __LINE__) {    \
    name, JRSND_OBS_CONCAT(jrsnd_prof_rm_, __LINE__)                                 \
  }
