// Process-wide metrics: named counters and gauges.
//
// Design constraints (DESIGN.md §observability):
//   * Hot-path cheap. Updates are relaxed atomics on pre-resolved handles;
//     every instrumentation macro first checks one process-wide enabled flag,
//     an inline load of a detail:: atomic, so a disabled site pays a single
//     relaxed load and no call.
//   * Multi-seed friendly. A run snapshots the registry into plain data
//     (MetricsSnapshot), which another registry can absorb: counters add,
//     gauges keep the high-water mark.
//   * Stable handles. The registry hands out references that stay valid for
//     the registry's lifetime, so call sites may cache them in static locals.
//
// Canonical metric names are documented in docs/observability.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jrsnd::obs {

namespace detail {
// The switches behind the inline reads below; written only through
// set_metrics_enabled and ScopedMetricsRegistry.
extern std::atomic<bool> g_metrics_enabled;
// Generation 0 is reserved as the macros' "never resolved" sentinel.
extern std::atomic<std::uint64_t> g_registry_generation;
}  // namespace detail

/// Process-wide collection switch; updates are dropped while false.
/// Default: disabled (zero overhead for benches and figure runs).
[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool enabled) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins level with a high-water helper (queue depths etc.).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  /// Raises the gauge to `v` if `v` exceeds the current value.
  void update_max(double v) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// --- snapshots -------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

/// Plain-data view of a registry at one instant.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;  // sorted by name
  std::vector<GaugeSample> gauges;      // sorted by name

  [[nodiscard]] bool empty() const noexcept;

  /// Aligned human-readable table (counters, then gauges).
  void print_table(std::ostream& os) const;

  /// One JSON object: {"counters":{...},"gauges":{...}}.
  void write_json(std::ostream& os) const;
};

/// Named-metric registry. Thread-safe registration; returned references are
/// stable for the registry's lifetime. Re-requesting a name returns the same
/// object. Requesting a name already registered as the other kind throws
/// std::logic_error naming both kinds — one logical metric must not silently
/// split across snapshot sections.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Adds a snapshot into this registry's live metrics: counters accumulate,
  /// gauges keep the high-water mark (the only cross-seed reduction that is
  /// always meaningful). This is how per-thread scratch registries are
  /// folded back into the process registry after a parallel Monte-Carlo
  /// run — totals end up identical to a serial run.
  void absorb(const MetricsSnapshot& snapshot);
  /// Zeroes every registered metric (names stay registered).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

/// The process-wide registry all instrumentation macros feed.
[[nodiscard]] MetricsRegistry& registry();

/// The registry instrumentation currently resolves against on this thread:
/// the thread's ScopedMetricsRegistry override if one is installed, else the
/// process-wide registry().
[[nodiscard]] MetricsRegistry& active_registry();

/// Bumped (process-wide) every time any thread installs or removes a
/// registry override. Instrumentation macros cache resolved metric handles
/// per thread and re-resolve only when this changes, so the steady-state
/// hot-path cost stays one relaxed load + one compare per site.
[[nodiscard]] inline std::uint64_t registry_generation() noexcept {
  return detail::g_registry_generation.load(std::memory_order_relaxed);
}

/// RAII thread-local registry override. While alive, every instrumentation
/// macro on this thread records into `scratch` instead of the global
/// registry — the isolation the parallel Monte-Carlo engine uses to give
/// each worker its own metrics, later folded back via snapshot()/absorb().
/// A null `scratch` is a no-op (convenient when metrics are disabled).
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry* scratch);
  ~ScopedMetricsRegistry();

  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_ = nullptr;
  bool installed_ = false;
};

/// Registers the canonical metric names (docs/observability.md) so snapshots
/// report them as zero even on paths a given configuration never exercises
/// (e.g. chip-layer counters under the abstract PHY).
void preregister_core_metrics();

}  // namespace jrsnd::obs

// --- instrumentation macros -------------------------------------------------
//
// Each site pays one relaxed atomic load when metrics are disabled. When
// enabled, the resolved metric handle is cached per thread and revalidated
// against registry_generation() with one relaxed load + compare, so a site
// re-resolves only when a ScopedMetricsRegistry override is (un)installed —
// the hook the parallel Monte-Carlo engine uses to give each worker thread
// its own scratch registry.

#define JRSND_OBS_CONCAT_INNER(a, b) a##b
#define JRSND_OBS_CONCAT(a, b) JRSND_OBS_CONCAT_INNER(a, b)

// Resolves `name` of metric kind Type (counter/gauge accessor `getter`)
// against the active registry, caching per (site, thread) until the registry
// generation moves. generation starts at 1, so 0 marks a never-resolved
// cache.
#define JRSND_OBS_RESOLVE(Type, getter, name, out)                                \
  static thread_local ::jrsnd::obs::Type* out = nullptr;                          \
  static thread_local std::uint64_t JRSND_OBS_CONCAT(out, _gen) = 0;              \
  {                                                                               \
    const std::uint64_t jrsnd_obs_now = ::jrsnd::obs::registry_generation();      \
    if (JRSND_OBS_CONCAT(out, _gen) != jrsnd_obs_now) {                           \
      out = &::jrsnd::obs::active_registry().getter(name);                        \
      JRSND_OBS_CONCAT(out, _gen) = jrsnd_obs_now;                                \
    }                                                                             \
  }

#define JRSND_COUNT_N(name, n)                                                    \
  do {                                                                            \
    if (::jrsnd::obs::metrics_enabled()) {                                        \
      JRSND_OBS_RESOLVE(Counter, counter, name, jrsnd_obs_c)                      \
      jrsnd_obs_c->inc(static_cast<std::uint64_t>(n));                            \
    }                                                                             \
  } while (0)

#define JRSND_GAUGE_MAX(name, v)                                                  \
  do {                                                                            \
    if (::jrsnd::obs::metrics_enabled()) {                                        \
      JRSND_OBS_RESOLVE(Gauge, gauge, name, jrsnd_obs_g)                          \
      jrsnd_obs_g->update_max(static_cast<double>(v));                            \
    }                                                                             \
  } while (0)

#define JRSND_COUNT(name) JRSND_COUNT_N(name, 1)
