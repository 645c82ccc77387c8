// Flight recorder (docs/observability.md), armed whenever a dump has
// somewhere to go.
//
// Every thread that records gets a fixed-capacity ring of plain-data
// FlightRecords. Pushing is the hot path: one thread-local load, a spinlock
// that is uncontended except while a dump walks the ring, and a struct copy
// — no heap allocation after the ring exists (the perf_alloc harness proves
// this through ChipPhy's instrumented transmit path). Rings live in a global
// intrusive list that is never freed; when a thread exits its ring is marked
// reusable but keeps its contents, so postmortems still see the last N
// records of finished workers.
//
// Every dump goes through the one signal-safe merge writer behind
// dump_flight_fd(). Dump triggers:
//   * on demand — dump_flight_now() to the configured path;
//   * on injected crashes — FaultyPhy notifies flight_on_crash_event() the
//     first time a crash window blocks traffic, which dumps to the
//     configured path (set_flight_dump_path);
//   * on process death — install_flight_crash_handler() hooks SIGSEGV /
//     SIGABRT / SIGBUS and std::terminate with an async-signal-safe writer.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/span.hpp"

namespace jrsnd::obs {

enum class FlightKind : std::uint8_t { SpanBegin = 0, SpanEnd = 1, Note = 2 };

/// One binary trace record. `name` must point at static storage (string
/// literals) — the ring stores the pointer, never a copy.
struct FlightRecord {
  double t_wall = 0.0;  ///< wall_seconds() at record time
  double t_sim = 0.0;   ///< event-log sim time / run index at record time
  std::uint64_t trace_id = 0;
  std::uint64_t arg = 0;  ///< note argument / span annotation
  const char* name = nullptr;
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;
  FlightKind kind = FlightKind::Note;
  bool ok = true;
  LossStage loss = LossStage::None;
};

namespace detail {
extern std::atomic<bool> g_flight_enabled;
}  // namespace detail

/// Recording switch. It follows the dump destination: set_flight_dump_path
/// with a non-empty path (which install_flight_crash_handler and
/// `--flight-dump` go through) arms it, an empty one disarms it, so a run
/// that cannot dump records nothing. One inline relaxed load.
[[nodiscard]] inline bool flight_enabled() noexcept {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}
/// Overrides the switch until the dump path is next set (tests, and
/// benches that measure the recorder's cost).
void set_flight_enabled(bool enabled) noexcept;

/// Per-thread ring capacity in records. Read from JRSND_FLIGHT_CAPACITY at
/// first use (default 256, kept with a warning on a malformed value);
/// set_flight_capacity overrides for tests. Only affects rings created
/// afterwards.
[[nodiscard]] std::size_t flight_capacity() noexcept;
/// The JRSND_FLIGHT_CAPACITY parse: a whole integer >= 1; nullopt otherwise.
[[nodiscard]] std::optional<std::size_t> parse_flight_capacity(std::string_view text) noexcept;
void set_flight_capacity(std::size_t records) noexcept;

/// Appends a record to this thread's ring (creating it on first use).
void flight_record(const FlightRecord& record) noexcept;

/// Convenience point record under the current span context (retries,
/// timeouts, fault injections). Zero-alloc; `name` must be a literal.
void flight_note(const char* name, std::uint64_t arg = 0) noexcept;

/// Total records ever pushed / dropped (overwritten) across all rings.
[[nodiscard]] std::uint64_t flight_records_pushed();
[[nodiscard]] std::uint64_t flight_records_dropped();

/// Empties every ring (capacity and ownership unchanged). Test helper.
void flight_reset();

/// Destination of every dump: dump_flight_now(), crash events and the
/// signal handlers. Empty (the default) disables them; at most 511 bytes.
/// Arms recording exactly when `path` is non-empty.
void set_flight_dump_path(const std::string& path);

/// Dumps to the configured path now; false if no path or the open failed.
bool dump_flight_now();

/// Called by FaultyPhy when an injected crash window first blocks traffic;
/// dumps to the configured path (at most once per call site's choosing).
void flight_on_crash_event();

/// Writes every surviving record, oldest wall-clock first across all rings,
/// as JSONL `flight.*` events in the standard trace schema onto a raw fd.
/// Signal-path safe (snprintf/to_chars + write only; no locks, no heap):
/// dump_flight_now() and the crash handlers write through the same merge.
/// `t` and `wall_s` are written as shortest round-trip doubles.
void dump_flight_fd(int fd);

/// Sets the dump path to `path` and installs SIGSEGV/SIGABRT/SIGBUS handlers
/// and a std::terminate hook that dump the rings there before re-raising.
/// Idempotent.
void install_flight_crash_handler(const std::string& path);

}  // namespace jrsnd::obs
