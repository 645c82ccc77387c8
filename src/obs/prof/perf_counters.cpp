#include "obs/prof/perf_counters.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hpp"
#include "obs/clock.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace jrsnd::obs::prof {

namespace detail {

std::atomic<bool> g_prof_enabled{false};

}  // namespace detail

namespace {

// 0 = unresolved; otherwise 1 + ProfBackend value so kOff is representable.
std::atomic<int> g_backend_request{0};

void publish_backend_gauge(ProfBackend backend) {
  // Direct registry write (not the macro): the gauge must reflect the live
  // backend even when general metrics collection is disabled.
  registry().gauge("prof.backend").set(static_cast<double>(backend));
}

#if defined(__linux__)
int open_counter(std::uint32_t type, std::uint64_t config) noexcept {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = type;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1, /*group_fd=*/-1, /*flags=*/0UL));
}

std::uint64_t read_counter(int fd) noexcept {
  if (fd < 0) return 0;
  std::uint64_t value = 0;
  if (::read(fd, &value, sizeof(value)) != static_cast<ssize_t>(sizeof(value))) return 0;
  return value;
}
#endif

/// Probe once whether hardware counters open at all on this host.
bool perf_event_available() {
#if defined(__linux__)
  static const bool available = [] {
    const int fd = open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return available;
#else
  return false;
#endif
}

ProfBackend resolve_backend() {
  const int requested = g_backend_request.load(std::memory_order_acquire);
  if (requested != 0) {
    const auto backend = static_cast<ProfBackend>(requested - 1);
    if (backend != ProfBackend::kPerfEvent) return backend;
    return perf_event_available() ? ProfBackend::kPerfEvent : ProfBackend::kClockFallback;
  }
  static const ProfBackend from_env = [] {
    if (const char* env = std::getenv("JRSND_PROF_BACKEND"); env != nullptr && env[0] != '\0') {
      const std::optional<ProfBackend> parsed = parse_prof_backend(env);
      if (parsed.has_value() && *parsed != ProfBackend::kPerfEvent) return *parsed;
      // "perf" runs the probe below too: it degrades without a PMU.
      if (!parsed.has_value()) {
        JRSND_WARN("prof") << "invalid JRSND_PROF_BACKEND value '" << env
                           << "' (want perf|clock|off); probing";
      }
    }
    return perf_event_available() ? ProfBackend::kPerfEvent : ProfBackend::kClockFallback;
  }();
  return from_env;
}

}  // namespace

std::optional<ProfBackend> parse_prof_backend(std::string_view text) noexcept {
  if (text == "perf") return ProfBackend::kPerfEvent;
  if (text == "clock") return ProfBackend::kClockFallback;
  if (text == "off") return ProfBackend::kOff;
  return std::nullopt;
}

const char* backend_name(ProfBackend backend) noexcept {
  switch (backend) {
    case ProfBackend::kOff: return "off";
    case ProfBackend::kClockFallback: return "clock_fallback";
    case ProfBackend::kPerfEvent: return "perf_event";
  }
  return "?";
}

ProfBackend prof_backend() {
  const ProfBackend backend = resolve_backend();
  publish_backend_gauge(backend);
  return backend;
}

void set_prof_backend(ProfBackend backend) {
  g_backend_request.store(1 + static_cast<int>(backend), std::memory_order_release);
  publish_backend_gauge(resolve_backend());
}

void set_prof_enabled(bool enabled) {
  detail::g_prof_enabled.store(enabled, std::memory_order_relaxed);
  if (enabled) (void)prof_backend();  // resolve + publish the gauge up front
}

double CounterTotals::ipc() const noexcept {
  if (cycles == 0 || instructions == 0) return 0.0;
  return static_cast<double>(instructions) / static_cast<double>(cycles);
}

double CounterTotals::llc_misses_per_kinst() const noexcept {
  if (instructions == 0) return 0.0;
  return 1000.0 * static_cast<double>(cache_misses) / static_cast<double>(instructions);
}

CounterTotals& CounterTotals::operator+=(const CounterTotals& other) noexcept {
  cycles += other.cycles;
  instructions += other.instructions;
  cache_misses += other.cache_misses;
  branch_misses += other.branch_misses;
  task_clock_ns += other.task_clock_ns;
  return *this;
}

PerfCounterSet::PerfCounterSet() : backend_(resolve_backend()) {
#if defined(__linux__)
  if (backend_ == ProfBackend::kPerfEvent) {
    // Open each counter independently so a host that lacks (say) LLC-miss
    // events still measures cycles. The leader failing demotes the set.
    static constexpr struct {
      std::uint32_t type;
      std::uint64_t config;
    } kEvents[5] = {
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
        {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
    };
    for (int i = 0; i < 5; ++i) fds_[i] = open_counter(kEvents[i].type, kEvents[i].config);
    if (fds_[0] < 0) {
      for (int& fd : fds_) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
      backend_ = ProfBackend::kClockFallback;
    }
  }
#else
  if (backend_ == ProfBackend::kPerfEvent) backend_ = ProfBackend::kClockFallback;
#endif
}

PerfCounterSet::~PerfCounterSet() {
#if defined(__linux__)
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
#endif
}

CounterTotals PerfCounterSet::read() const noexcept {
  CounterTotals totals;
  switch (backend_) {
    case ProfBackend::kOff:
      return totals;
    case ProfBackend::kPerfEvent:
#if defined(__linux__)
      totals.cycles = read_counter(fds_[0]);
      totals.instructions = read_counter(fds_[1]);
      totals.cache_misses = read_counter(fds_[2]);
      totals.branch_misses = read_counter(fds_[3]);
      totals.task_clock_ns = read_counter(fds_[4]);
#endif
      return totals;
    case ProfBackend::kClockFallback:
      totals.task_clock_ns = clock_ns();
      return totals;
  }
  return totals;
}

PerfCounterSet& PerfCounterSet::this_thread() {
  // Heap-allocated and leaked on thread exit is unnecessary: thread_local
  // destruction closes the fds in an orderly way, and no other thread ever
  // touches this set.
  static thread_local PerfCounterSet set;
  return set;
}

void resolve_region_metrics(std::string_view name, RegionMetrics& cache) {
  const std::uint64_t now = registry_generation();
  if (cache.generation == now) return;
  MetricsRegistry& reg = active_registry();
  std::string base("prof.");
  base += name;
  const std::size_t stem = base.size();
  const auto resolve = [&](const char* suffix) -> Counter* {
    base.resize(stem);
    base += suffix;
    return &reg.counter(base);
  };
  cache.count = resolve(".count");
  cache.task_clock_ns = resolve(".task_clock_ns");
  const bool pmu = PerfCounterSet::this_thread().backend() == ProfBackend::kPerfEvent;
  cache.cycles = pmu ? resolve(".cycles") : nullptr;
  cache.instructions = pmu ? resolve(".instructions") : nullptr;
  cache.cache_misses = pmu ? resolve(".cache_misses") : nullptr;
  cache.branch_misses = pmu ? resolve(".branch_misses") : nullptr;
  cache.generation = now;
}

void PerfRegion::arm() noexcept {
  const PerfCounterSet& set = PerfCounterSet::this_thread();
  if (set.backend() == ProfBackend::kOff) return;
  armed_ = true;
  start_ = set.read();
}

void PerfRegion::record() noexcept {
  const CounterTotals end = PerfCounterSet::this_thread().read();
  resolve_region_metrics(name_, cache_);
  cache_.count->inc(1);
  cache_.task_clock_ns->inc(end.task_clock_ns - start_.task_clock_ns);
  if (cache_.cycles == nullptr) return;  // clock fallback: no PMU counters
  cache_.cycles->inc(end.cycles - start_.cycles);
  cache_.instructions->inc(end.instructions - start_.instructions);
  cache_.cache_misses->inc(end.cache_misses - start_.cache_misses);
  cache_.branch_misses->inc(end.branch_misses - start_.branch_misses);
}

}  // namespace jrsnd::obs::prof
