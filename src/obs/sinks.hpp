// Concrete event sinks + the JSONL trace format (docs/observability.md).
//
// One trace event = one flat JSON object per line. Reserved keys `t` (sim
// time, number), `seq` (number), `sev` (string), `event` (string); every
// other key is a user field. parse_jsonl_line() inverts write_jsonl()
// exactly — doubles are written as the shortest string that parses back to
// the same value — so `jrsnd analyze` and the round-trip tests read what any
// sink wrote, including TracingPhy's print_jsonl, which shares this schema.
#pragma once

#include <cstddef>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "obs/event_log.hpp"

namespace jrsnd::obs {

/// JSON string-escapes `s` (quotes, backslashes, control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Longest text format_json_double() writes.
inline constexpr std::size_t kJsonDoubleChars = 32;

/// Writes `value` into [first, first + kJsonDoubleChars) as the shortest JSON
/// number that parses back to it ("null" for NaN and infinities); returns the
/// end. Allocation- and lock-free, so the signal-path flight dump uses it too.
char* format_json_double(char* first, double value) noexcept;

/// Writes one event as a single JSONL line (with trailing newline).
void write_jsonl(std::ostream& os, const TraceEvent& event);

/// Parses one JSONL line back into an event. Returns nullopt on malformed
/// input (the reserved keys may be absent; unknown keys become fields).
[[nodiscard]] std::optional<TraceEvent> parse_jsonl_line(std::string_view line);

/// JSONL onto any ostream the caller keeps alive.
class JsonlStreamSink final : public EventSink {
 public:
  explicit JsonlStreamSink(std::ostream& os) : os_(os) {}

  void write(const TraceEvent& event) override;
  void flush() override;

 private:
  std::ostream& os_;
};

/// JSONL into a file this sink owns.
class JsonlFileSink final : public EventSink {
 public:
  explicit JsonlFileSink(const std::string& path);

  /// False when the file could not be opened (events are then dropped).
  [[nodiscard]] bool ok() const noexcept { return static_cast<bool>(file_); }

  void write(const TraceEvent& event) override;
  void flush() override;

 private:
  std::ofstream file_;
};

}  // namespace jrsnd::obs
