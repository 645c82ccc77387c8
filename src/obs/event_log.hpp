// Structured trace events (docs/observability.md).
//
// A TraceEvent is one timestamped, named record with typed key=value fields:
//
//   {"t":0.000,"seq":17,"sev":"info","event":"dndp.pair","a":4,"b":9,...}
//
// The process-wide EventLog stamps each event with a monotonic sequence
// number and the current simulated time and fans out to attached sinks
// (JSONL stream or file — see obs/sinks.hpp). Tracing is off by default;
// call sites guard event construction behind tracing_enabled() so a
// disabled run pays one relaxed load per site.
//
// Time semantics: the periodic loop stamps each epoch's events with the
// epoch start through ScopedSimTime; Monte-Carlo drivers (discovery_sim)
// publish the run index, since each seeded run is an independent world.
// Either way `t` is monotone over one process run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace jrsnd::obs {

enum class Severity { Debug = 0, Info = 1, Warn = 2, Error = 3 };

[[nodiscard]] const char* severity_name(Severity sev) noexcept;
[[nodiscard]] std::optional<Severity> parse_severity(std::string_view name) noexcept;

/// Field values keep their type through the JSONL round trip.
using FieldValue = std::variant<std::string, double, std::int64_t, std::uint64_t, bool>;

struct TraceEvent {
  double t = 0.0;          ///< sim time (stamped by EventLog::emit if zero)
  std::uint64_t seq = 0;   ///< assigned by EventLog::emit
  Severity severity = Severity::Info;
  std::string name;        ///< dotted event id, e.g. "dndp.pair"
  std::vector<std::pair<std::string, FieldValue>> fields;

  TraceEvent() = default;
  explicit TraceEvent(std::string event_name, Severity sev = Severity::Info)
      : severity(sev), name(std::move(event_name)) {}

  /// Appends a field; chainable: ev.with("a", 1).with("ok", true).
  TraceEvent& with(std::string key, FieldValue value) {
    fields.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// First field with `key`, or nullptr.
  [[nodiscard]] const FieldValue* field(std::string_view key) const noexcept;
};

/// Sink interface; concrete sinks live in obs/sinks.hpp.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void write(const TraceEvent& event) = 0;
  virtual void flush() {}
};

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace detail

/// Process-wide structured trace switch (independent of metrics_enabled).
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}
void set_tracing_enabled(bool enabled) noexcept;

class EventLog {
 public:
  void attach(std::shared_ptr<EventSink> sink);
  void detach_all();

  /// Publishes the current simulated time; emit() stamps it on events that
  /// do not carry their own.
  void set_sim_time(double t) noexcept;
  [[nodiscard]] double sim_time() const noexcept;

  /// Stamps seq (+ t if the event left it at 0) and fans out to every
  /// attached sink. Thread-safe.
  void emit(TraceEvent event);

  [[nodiscard]] std::uint64_t emitted() const noexcept;

  void flush();

 private:
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<EventSink>> sinks_;
  std::uint64_t next_seq_ = 1;
  std::atomic<double> sim_time_{0.0};
};

/// The process-wide event log all instrumentation feeds.
[[nodiscard]] EventLog& event_log();

/// RAII thread-local sim-time override. While alive, events emitted from
/// this thread that carry t == 0 are stamped with `t` instead of the global
/// sim time — how parallel Monte-Carlo workers stamp their own run index so
/// interleaved traces stay attributable (and, after a seed-ordered sort,
/// byte-identical to a serial run). Nests; the previous value is restored.
class ScopedSimTime {
 public:
  explicit ScopedSimTime(double t) noexcept;
  ~ScopedSimTime();

  ScopedSimTime(const ScopedSimTime&) = delete;
  ScopedSimTime& operator=(const ScopedSimTime&) = delete;

 private:
  double saved_t_;
  bool saved_active_;
};

/// The sim time instrumentation on this thread should stamp right now: the
/// innermost ScopedSimTime override if one is active, else the global
/// event_log() clock.
[[nodiscard]] double current_sim_time() noexcept;

}  // namespace jrsnd::obs
