#include "common/logging.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <utility>

namespace jrsnd {

namespace {

/// Reads JRSND_LOG_LEVEL once; unset or unparsable (with a warning — straight
/// to stderr, since the logger is still initializing) falls back to Warn.
LogLevel initial_level() noexcept {
  const char* env = std::getenv("JRSND_LOG_LEVEL");
  if (env == nullptr || env[0] == '\0') return LogLevel::Warn;
  if (const auto parsed = parse_log_level(env); parsed.has_value()) return *parsed;
  std::fprintf(stderr, "[WARN] logging: invalid JRSND_LOG_LEVEL value '%s' "
                       "(want trace|debug|info|warn|error|off); using warn\n", env);
  return LogLevel::Warn;
}

std::atomic<LogLevel> g_level{initial_level()};
std::atomic<bool> g_timestamps{false};
std::mutex g_emit_mutex;
LogSink g_sink;  // guarded by g_emit_mutex; empty = stderr

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char ca = (a[i] >= 'A' && a[i] <= 'Z') ? static_cast<char>(a[i] - 'A' + 'a') : a[i];
    if (ca != b[i]) return false;
  }
  return true;
}

}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() noexcept { return g_level.load(std::memory_order_relaxed); }

std::optional<LogLevel> parse_log_level(std::string_view name) noexcept {
  if (iequals(name, "trace")) return LogLevel::Trace;
  if (iequals(name, "debug")) return LogLevel::Debug;
  if (iequals(name, "info")) return LogLevel::Info;
  if (iequals(name, "warn") || iequals(name, "warning")) return LogLevel::Warn;
  if (iequals(name, "error")) return LogLevel::Error;
  if (iequals(name, "off") || iequals(name, "none")) return LogLevel::Off;
  return std::nullopt;
}

void set_log_timestamps(bool enabled) noexcept {
  g_timestamps.store(enabled, std::memory_order_relaxed);
}

bool log_timestamps() noexcept { return g_timestamps.load(std::memory_order_relaxed); }

void set_log_sink(LogSink sink) {
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  g_sink = std::move(sink);
}

void log_line(LogLevel level, const std::string& tag, const std::string& message) {
  if (level < log_level()) return;
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  if (g_sink) {
    g_sink(level, tag, message);
    return;
  }
  char stamp[32] = "";
  if (log_timestamps()) {
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
#if defined(_WIN32)
    gmtime_s(&utc, &now);
#else
    gmtime_r(&now, &utc);
#endif
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ ", &utc);
  }
  std::fprintf(stderr, "%s[%s] %s: %s\n", stamp, level_name(level), tag.c_str(), message.c_str());
}

}  // namespace jrsnd
