#include "obs/flight_recorder.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <vector>

#include "common/logging.hpp"
#include "common/parse.hpp"
#include "obs/event_log.hpp"
#include "obs/sinks.hpp"

namespace jrsnd::obs {

namespace detail {

std::atomic<bool> g_flight_enabled{true};

}  // namespace detail

namespace {

std::atomic<std::size_t> g_capacity_override{0};

/// One thread's ring. Lives forever in the global intrusive list below;
/// `in_use` flips false when the owning thread exits so a later thread can
/// adopt it (bounding memory across repeated thread-pool churn) while its
/// records stay dumpable.
struct Ring {
  explicit Ring(std::size_t cap) : capacity(cap), records(cap) {}

  void lock() noexcept {
    while (spin.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() noexcept { spin.clear(std::memory_order_release); }

  Ring* next = nullptr;  // immutable after publication
  std::atomic<bool> in_use{false};
  std::atomic_flag spin = ATOMIC_FLAG_INIT;
  std::uint64_t pushed = 0;  // guarded by spin
  const std::size_t capacity;
  std::vector<FlightRecord> records;  // guarded by spin
  // dump_flight_fd's merge cursor over [fd_next, fd_end) — touched only by
  // that dumper, which can neither allocate nor take the spinlock.
  std::uint64_t fd_next = 0;
  std::uint64_t fd_end = 0;
};

std::atomic<Ring*> g_rings{nullptr};

Ring* acquire_ring() {
  const std::size_t want = flight_capacity();
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr; r = r->next) {
    bool free = false;
    if (r->capacity == want &&
        r->in_use.compare_exchange_strong(free, true, std::memory_order_acq_rel)) {
      return r;
    }
  }
  Ring* r = new Ring(want);  // intentionally never freed: reachable from g_rings
  r->in_use.store(true, std::memory_order_relaxed);
  r->next = g_rings.load(std::memory_order_relaxed);
  while (!g_rings.compare_exchange_weak(r->next, r, std::memory_order_acq_rel)) {
  }
  return r;
}

thread_local Ring* t_ring = nullptr;

struct RingRelease {
  ~RingRelease() {
    if (t_ring != nullptr) {
      t_ring->in_use.store(false, std::memory_order_release);
      t_ring = nullptr;
    }
  }
};
thread_local RingRelease t_ring_release;

Ring& this_thread_ring() {
  if (t_ring == nullptr) {
    t_ring = acquire_ring();
    (void)t_ring_release;  // odr-use so the releaser is constructed
  }
  return *t_ring;
}

// The one dump destination. The mutex orders setting it against on-demand
// dumps; the crash handlers read the plain array without locking.
std::mutex g_dump_path_mutex;
char g_dump_path[512] = {0};

const char* flight_kind_name(FlightKind kind) noexcept {
  switch (kind) {
    case FlightKind::SpanBegin: return "begin";
    case FlightKind::SpanEnd: return "end";
    case FlightKind::Note: return "note";
  }
  return "?";
}

}  // namespace

void set_flight_enabled(bool enabled) noexcept {
  detail::g_flight_enabled.store(enabled, std::memory_order_relaxed);
}

std::optional<std::size_t> parse_flight_capacity(std::string_view text) noexcept {
  const std::optional<std::uint64_t> value = parse_u64(text);
  if (!value.has_value() || *value == 0) return std::nullopt;
  return static_cast<std::size_t>(*value);
}

std::size_t flight_capacity() noexcept {
  if (const std::size_t cap = g_capacity_override.load(std::memory_order_relaxed); cap != 0) {
    return cap;
  }
  static const std::size_t from_env = [] {
    constexpr std::size_t kDefault = 256;
    const char* env = std::getenv("JRSND_FLIGHT_CAPACITY");
    if (env == nullptr || env[0] == '\0') return kDefault;
    if (const auto records = parse_flight_capacity(env)) return *records;
    JRSND_WARN("flight") << "invalid JRSND_FLIGHT_CAPACITY value '" << env
                         << "' (want an integer >= 1); using " << kDefault;
    return kDefault;
  }();
  return from_env;
}

void set_flight_capacity(std::size_t records) noexcept {
  g_capacity_override.store(records, std::memory_order_relaxed);
}

void flight_record(const FlightRecord& record) noexcept {
  if (!flight_enabled()) return;
  Ring& ring = this_thread_ring();
  ring.lock();
  ring.records[ring.pushed % ring.capacity] = record;
  ++ring.pushed;
  ring.unlock();
}

void flight_note(const char* name, std::uint64_t arg) noexcept {
  if (!flight_enabled()) return;
  const SpanContext ctx = current_span();
  FlightRecord rec;
  rec.t_wall = wall_seconds();
  rec.t_sim = current_sim_time();
  rec.trace_id = ctx.trace_id;
  rec.span_id = ctx.span_id;
  rec.parent_id = ctx.parent_id;
  rec.name = name;
  rec.arg = arg;
  rec.kind = FlightKind::Note;
  flight_record(rec);
}

std::uint64_t flight_records_pushed() {
  std::uint64_t total = 0;
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr; r = r->next) {
    r->lock();
    total += r->pushed;
    r->unlock();
  }
  return total;
}

std::uint64_t flight_records_dropped() {
  std::uint64_t dropped = 0;
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr; r = r->next) {
    r->lock();
    if (r->pushed > r->capacity) dropped += r->pushed - r->capacity;
    r->unlock();
  }
  return dropped;
}

void flight_reset() {
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr; r = r->next) {
    r->lock();
    r->pushed = 0;
    r->unlock();
  }
}

void set_flight_dump_path(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_dump_path_mutex);
  std::snprintf(g_dump_path, sizeof(g_dump_path), "%s", path.c_str());
}

namespace {

// --- async-signal-safe dumper ----------------------------------------------
//
// Only snprintf/to_chars into a stack buffer + write(2); walks the ring list
// without taking spinlocks (a crashed thread may hold one) — records are
// PODs, so a torn read at worst garbles the line being overwritten at crash
// time.

void write_all(int fd, const char* buf, std::size_t len) noexcept {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, buf + off, len - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// `value` as a NUL-terminated shortest round-trip JSON number.
struct JsonDouble {
  explicit JsonDouble(double value) noexcept { *format_json_double(text, value) = '\0'; }
  char text[kJsonDoubleChars + 1];
};

/// The one dump writer: merges the rings listed from `head`. Each ring is
/// already in wall-clock order, so taking the oldest head (ties to the
/// earlier ring) orders every thread's records without sorting or allocating.
void write_rings(int fd, Ring* head) noexcept {
  for (Ring* r = head; r != nullptr; r = r->next) {
    r->fd_end = r->pushed;
    r->fd_next = r->fd_end - std::min<std::uint64_t>(r->fd_end, r->capacity);
  }
  const auto head_of = [](const Ring* r) -> const FlightRecord& {
    return r->records[r->fd_next % r->capacity];
  };
  char buf[512];
  std::uint64_t seq = 0;
  while (true) {
    Ring* oldest = nullptr;
    for (Ring* r = head; r != nullptr; r = r->next) {
      if (r->fd_next >= r->fd_end) continue;  // >=: two crashing threads may race here
      if (oldest == nullptr || head_of(r).t_wall < head_of(oldest).t_wall) oldest = r;
    }
    if (oldest == nullptr) return;
    const FlightRecord& rec = head_of(oldest);
    ++oldest->fd_next;
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"t\":%s,\"seq\":%llu,\"sev\":\"%s\",\"event\":\"flight.%s\",\"wall_s\":%s,"
        "\"name\":\"%s\",\"trace\":%llu,\"span\":%u,\"parent\":%u",
        JsonDouble(rec.t_sim).text, static_cast<unsigned long long>(++seq),
        rec.ok ? "info" : "warn", flight_kind_name(rec.kind), JsonDouble(rec.t_wall).text,
        rec.name != nullptr ? rec.name : "?", static_cast<unsigned long long>(rec.trace_id),
        rec.span_id, rec.parent_id);
    const auto append = [&](const char* fmt, auto value) {
      if (n < 0 || static_cast<std::size_t>(n) >= sizeof(buf)) return;
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n), fmt, value);
    };
    if (rec.kind == FlightKind::SpanEnd) append(",\"ok\":%s", rec.ok ? "true" : "false");
    if (rec.loss != LossStage::None) append(",\"loss\":\"%s\"", loss_stage_name(rec.loss));
    if (rec.kind == FlightKind::Note && rec.arg != 0) {
      append(",\"arg\":%llu", static_cast<unsigned long long>(rec.arg));
    }
    append("%s", "}\n");
    if (n > 0) write_all(fd, buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
  }
}

/// Opens `path` (truncating) and writes the dump; false if the open failed.
bool dump_flight_to(const char* path, Ring* head) noexcept {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  write_rings(fd, head);
  return ::close(fd) == 0;
}

}  // namespace

bool dump_flight_now() {
  const std::lock_guard<std::mutex> lock(g_dump_path_mutex);
  if (g_dump_path[0] == '\0') return false;
  // Unlike the crash handlers, this dump runs beside live writers, so it
  // holds every ring it reads (pushers spin until it is done).
  Ring* const head = g_rings.load(std::memory_order_acquire);
  for (Ring* r = head; r != nullptr; r = r->next) r->lock();
  const bool ok = dump_flight_to(g_dump_path, head);
  for (Ring* r = head; r != nullptr; r = r->next) r->unlock();
  return ok;
}

void flight_on_crash_event() {
  flight_note("fault.crash_window", 1);
  (void)dump_flight_now();
}

void dump_flight_fd(int fd) { write_rings(fd, g_rings.load(std::memory_order_acquire)); }

namespace {

std::atomic<bool> g_handler_installed{false};
std::terminate_handler g_prev_terminate = nullptr;

void dump_to_crash_path() noexcept {
  if (g_dump_path[0] != '\0') {
    (void)dump_flight_to(g_dump_path, g_rings.load(std::memory_order_acquire));
  }
}

void crash_signal_handler(int sig) {
  dump_to_crash_path();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

[[noreturn]] void terminate_with_dump() {
  dump_to_crash_path();
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

void install_flight_crash_handler(const std::string& path) {
  set_flight_dump_path(path);
  bool expected = false;
  if (!g_handler_installed.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
    return;  // already installed; only the path was refreshed above
  }
  std::signal(SIGSEGV, crash_signal_handler);
  std::signal(SIGABRT, crash_signal_handler);
  std::signal(SIGBUS, crash_signal_handler);
  g_prev_terminate = std::set_terminate(terminate_with_dump);
}

}  // namespace jrsnd::obs
