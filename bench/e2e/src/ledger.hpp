// Bookkeeping shared by every workload of the end-to-end benchmark: the
// in-memory span ledger of the traced pass, the correctness-check tally, and
// the metric entries the binary prints.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

// --- spans --------------------------------------------------------------------

/// One timed boundary of the traced pass. `replayed` marks spans around calls
/// the benchmark re-executes itself to attribute time the engine spends
/// internally (crypto, code-set bookkeeping); they are excluded from the run
/// wall and from coverage.
struct SpanRecord {
  const char* name = nullptr;  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the ledger, -1 for a root span
  std::uint64_t trace_id = 0;
  bool replayed = false;
};

/// Spans kept in memory for one serial traced run and written when it ends.
class SpanLedger {
 public:
  SpanLedger() { spans_.reserve(1u << 16); }

  /// Opens a child of the innermost open span. A zero `trace_id` inherits
  /// the parent's.
  std::int32_t open(const char* name, std::uint64_t trace_id, bool replayed);
  void close(std::int32_t index) noexcept;

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
};

/// RAII span; a null ledger records nothing (the untraced paths).
class ScopedSpan {
 public:
  ScopedSpan(SpanLedger* ledger, const char* name, std::uint64_t trace_id = 0,
             bool replayed = false)
      : ledger_(ledger), index_(ledger ? ledger->open(name, trace_id, replayed) : -1) {}
  ~ScopedSpan() {
    if (ledger_ != nullptr) ledger_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLedger* ledger_;
  std::int32_t index_;
};

/// Per-name totals. Self time is a span's duration minus the time its
/// children cover (children never overlap: the traced pass is serial).
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

struct LedgerSummary {
  std::map<std::string, SpanTotals> by_name;
  std::int64_t wall_ns = 0;     ///< run wall minus root replayed spans
  std::int64_t covered_ns = 0;  ///< root non-replayed spans
  std::int64_t replay_ns = 0;   ///< root replayed spans

  /// Totals of one span name (zeros when it never occurred).
  [[nodiscard]] SpanTotals operator[](const std::string& name) const;
};

/// `run_ns` is the wall of the whole traced run, replays included.
[[nodiscard]] LedgerSummary summarize(const SpanLedger& ledger, std::int64_t run_ns);

/// Durations (ns) of every span called `name`, in recording order.
[[nodiscard]] std::vector<double> durations(const SpanLedger& ledger, const char* name);

// --- correctness --------------------------------------------------------------

/// Operations checked and checks failed; the first few failures are kept
/// verbatim for the report.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one check; returns `ok`.
  bool expect(bool ok, const char* what);
  /// Counts `checked` checks of which `bad` failed.
  void tally(std::uint64_t checked, std::uint64_t bad, const char* what);
};

// --- metrics -------------------------------------------------------------------

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the default "exclusive" method); one sample is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// Linear-interpolated percentile (p in [0, 100]) of unsorted values.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// One metric entry of the result schema. A value that was not measured is
/// std::nullopt and prints as null with "measured": false — never as 0.
struct Metric {
  std::string name;
  std::string layer;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
  std::optional<double> value;
  std::size_t n = 0;
  double q1 = 0.0;
  double q3 = 0.0;
};

class MetricSet {
 public:
  /// A single measured (or unmeasured) value.
  void add(const std::string& name, const char* layer, const char* unit, const char* better,
           std::optional<double> value, std::size_t n = 1);
  /// An end-to-end median of `samples`, with its quartiles and sample count.
  void add_median(const std::string& name, const char* unit, const char* better,
                  const std::vector<double>& samples);
  /// Per-rep end-to-end timings: the best quartile (q3 when higher is
  /// better, else q1), with the quartiles and sample count. Interference on
  /// a shared host only ever slows a rep, so the best quartile tracks the
  /// program where the median tracks the neighbours.
  void add_reps(const std::string& name, const char* unit, const char* better,
                const std::vector<double>& samples);

  [[nodiscard]] const std::vector<Metric>& entries() const noexcept { return entries_; }

 private:
  std::vector<Metric> entries_;
};

/// Shares and ratios: nullopt when the denominator is zero.
[[nodiscard]] std::optional<double> ratio(double num, double den);

// --- JSON output ---------------------------------------------------------------

/// Appends `s` as a JSON string literal.
void json_string(std::string& out, const std::string& s);
/// Appends a number with all its digits, or null.
void json_number(std::string& out, std::optional<double> v);

/// Writes the trace of one traced run: every span, then the per-name totals.
/// Returns false when the file cannot be written.
bool write_trace(const std::string& path, const std::string& workload, std::uint64_t seed,
                 const SpanLedger& ledger, std::int64_t run_start_ns,
                 const LedgerSummary& summary, std::int64_t untraced_ns,
                 const std::map<std::string, std::string>& layer_of);

}  // namespace e2e
