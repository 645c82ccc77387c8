#include "obs/event_log.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>

namespace jrsnd::obs {

namespace detail {

std::atomic<bool> g_tracing_enabled{false};

}  // namespace detail

namespace {

thread_local double t_sim_time = 0.0;
thread_local bool t_sim_time_active = false;

}  // namespace

const char* severity_name(Severity sev) noexcept {
  switch (sev) {
    case Severity::Debug: return "debug";
    case Severity::Info: return "info";
    case Severity::Warn: return "warn";
    case Severity::Error: return "error";
  }
  return "?";
}

std::optional<Severity> parse_severity(std::string_view name) noexcept {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "debug") return Severity::Debug;
  if (lower == "info") return Severity::Info;
  if (lower == "warn" || lower == "warning") return Severity::Warn;
  if (lower == "error") return Severity::Error;
  return std::nullopt;
}

const FieldValue* TraceEvent::field(std::string_view key) const noexcept {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

void set_tracing_enabled(bool enabled) noexcept {
  detail::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void EventLog::attach(std::shared_ptr<EventSink> sink) {
  if (sink == nullptr) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  sinks_.push_back(std::move(sink));
}

void EventLog::detach_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& sink : sinks_) sink->flush();
  sinks_.clear();
}

void EventLog::set_sim_time(double t) noexcept {
  sim_time_.store(t, std::memory_order_relaxed);
}

double EventLog::sim_time() const noexcept { return sim_time_.load(std::memory_order_relaxed); }

void EventLog::emit(TraceEvent event) {
  // An *active* thread-local override wins even when its value is 0.0 (run
  // index 0 is a legitimate time); only threads with no override fall back
  // to the process-wide clock, which may hold a stale value from an earlier
  // serial sweep.
  const bool overridden = event.t == 0.0 && t_sim_time_active;
  if (overridden) event.t = t_sim_time;
  const std::lock_guard<std::mutex> lock(mutex_);
  event.seq = next_seq_++;
  if (event.t == 0.0 && !overridden) event.t = sim_time_.load(std::memory_order_relaxed);
  for (const auto& sink : sinks_) sink->write(event);
}

std::uint64_t EventLog::emitted() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_ - 1;
}

void EventLog::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& sink : sinks_) sink->flush();
}

EventLog& event_log() {
  static EventLog instance;
  return instance;
}

ScopedSimTime::ScopedSimTime(double t) noexcept
    : saved_t_(t_sim_time), saved_active_(t_sim_time_active) {
  t_sim_time = t;
  t_sim_time_active = true;
}

ScopedSimTime::~ScopedSimTime() {
  t_sim_time = saved_t_;
  t_sim_time_active = saved_active_;
}

double current_sim_time() noexcept {
  return t_sim_time_active ? t_sim_time : event_log().sim_time();
}

}  // namespace jrsnd::obs
