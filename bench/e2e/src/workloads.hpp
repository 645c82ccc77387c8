// The five named workloads of the end-to-end benchmark (README.md explains
// why each exists) and the two passes every one of them runs: the timed pass
// (tracing off, end-to-end metrics) and the serial traced pass (per-layer
// metrics and trace.json).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t reps = 7;       ///< timed reps (ignored when seconds > 0)
  double seconds = 0.0;       ///< measure for this long instead of a fixed rep count
  std::string trace_path;     ///< non-empty: run the traced pass, writing this file
  bool smoke = false;         ///< shrunken inputs, 2 reps, one set-up
};

/// What one pass of one workload measured.
struct PassResult {
  MetricSet metrics;
  Checks checks;
  std::size_t threads = 1;
  /// Traced pass only: 1 / wall of the untraced serial run (runs/s). run.py
  /// combines it with the timed pass's runs_per_s into
  /// common.pool.scaling_eff.
  std::optional<double> serial_runs_per_s;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed and runs one warm-up rep.
  virtual void setup(Checks& checks) = 0;
  /// One timed rep of identical work, correctness checks included.
  virtual void rep(Checks& checks) = 0;
  /// Throughput metrics from the timed reps' durations (seconds).
  virtual void rep_metrics(const std::vector<double>& rep_s, MetricSet& out) = 0;
  /// The serial traced pass: per-layer metrics into `out`, spans to `path`.
  virtual void traced(const std::string& path, PassResult& out) = 0;
  /// Worker threads the timed pass uses.
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed, bool smoke);

/// Set-up (repeated, median reported), then timed reps until `reps` are done
/// or `seconds` have elapsed.
[[nodiscard]] PassResult run_timed(Workload& workload, const Options& options);

}  // namespace e2e
