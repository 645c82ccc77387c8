// The one offline reader of a JSONL trace: `jrsnd analyze FILE`
// (docs/observability.md).
//
// Reads a JSONL trace (strictly: the first malformed line is an error with
// its line number, not a skip), pairs span.begin/span.end records back into
// a span tree per trace id, and derives:
//   * event and severity counts, the t range, and the dndp.pair / phy.tx
//     delivery ratios;
//   * per-attempt summaries — a root span is one discovery attempt;
//   * stage-level statistics (count, failures, durations, nearest-rank
//     latency percentiles);
//   * loss attribution — every failed attempt maps to exactly one LossStage;
//   * the top-K slowest attempts by critical-path duration.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/span.hpp"

namespace jrsnd::obs {

struct TraceReadError {
  std::size_t line = 0;  ///< 1-based offending line
  std::string message;
};

/// Strict JSONL reader: appends every parsed event to `out`; on the first
/// malformed line returns false with `error` (if non-null) filled in. Blank
/// lines are tolerated (trailing newline convenience), nothing else is.
bool read_trace_jsonl(std::istream& is, std::vector<TraceEvent>& out,
                      TraceReadError* error = nullptr);

/// Canonicalizes a trace for comparison: stable-sort by `t` (the run index
/// in Monte-Carlo traces — within one run, emission order is preserved on
/// both the serial and the parallel path because a run executes on a single
/// thread), then renumber `seq` from 1. Serial and parallel runs of the
/// same experiment produce byte-identical JSONL after this.
void normalize_trace(std::vector<TraceEvent>& events);

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;
  std::string name;
  double t = 0.0;  ///< run index / sim time of the begin record
  bool ok = true;
  LossStage loss = LossStage::None;
  double dur = 0.0;  ///< deterministic duration (seconds); 0 when absent
  bool has_dur = false;
  double wall_us = 0.0;  ///< wall-clock micros; only when the producer opted in
  bool has_wall = false;
};

struct StageStats {
  std::uint64_t count = 0;
  std::uint64_t failed = 0;
  double total_dur = 0.0;
  double max_dur = 0.0;
};

struct AttemptSummary {
  std::uint64_t trace_id = 0;
  std::string name;
  double t = 0.0;
  bool ok = true;
  LossStage loss = LossStage::None;
  double dur = 0.0;  ///< critical path: the root span's own duration
  double wall_us = 0.0;
  std::size_t spans = 0;  ///< spans recorded under this trace id
};

/// Nearest-rank percentile of ascending `sorted` samples: the value at rank
/// ceil(percent * n / 100) (at least 1), computed in integers so a whole
/// q * n never rounds up a rank. NaN when empty. percent in [0, 100].
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted,
                                  std::uint32_t percent) noexcept;

/// Successes out of all occurrences of one event kind.
struct DeliveryCount {
  std::uint64_t total = 0;
  std::uint64_t ok = 0;
  void add(bool success) noexcept { ++total; if (success) ++ok; }
};

struct TraceAnalysis {
  std::size_t events = 0;       ///< total events examined
  std::size_t span_events = 0;  ///< span.begin + span.end among them
  std::map<std::string, std::uint64_t> by_event;  ///< event name -> count
  std::array<std::uint64_t, 4> by_severity{};     ///< indexed by Severity
  double t_min = 0.0;  ///< t range over all events (0 when empty)
  double t_max = 0.0;
  DeliveryCount dndp_pairs;  ///< dndp.pair events, ok = `discovered`
  DeliveryCount phy_tx;      ///< phy.tx events, ok = `delivered`
  std::vector<SpanRecord> spans;
  std::vector<AttemptSummary> attempts;      ///< root spans, file order
  std::map<std::string, StageStats> stages;  ///< keyed by span name
  std::array<std::uint64_t, kLossStageCount> loss_counts{};
  std::size_t failed_attempts = 0;
  std::size_t unattributed_failures = 0;  ///< failed roots with loss == None
  std::size_t unmatched_begin = 0;  ///< begins with no end (crash/truncation)
  std::size_t unmatched_end = 0;    ///< ends with no begin (ring overwrite)

  /// True when every failed attempt carries exactly one loss stage — the
  /// invariant `jrsnd analyze` checks on chaos traces.
  [[nodiscard]] bool attribution_complete() const noexcept {
    return unattributed_failures == 0;
  }
};

/// Reconstructs spans/attempts from `events` (any mix of span records and
/// other trace events; non-span events only count toward `events`).
[[nodiscard]] TraceAnalysis analyze_trace(const std::vector<TraceEvent>& events);

/// Human-readable report: event/severity counts, t range, delivery ratios,
/// attempt totals, loss-attribution table, per-stage breakdown, per-stage
/// p50/p95/p99/max latency, top-K slowest attempts. Latencies are wall-clock
/// (`wall_us`) when the trace has them, else the deterministic `dur`.
void print_analysis(std::ostream& os, const TraceAnalysis& analysis, std::size_t top_k = 10);

}  // namespace jrsnd::obs
