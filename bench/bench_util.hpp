// Shared scaffolding for the benches.
//
// Every figure bench prints: the experiment id, the Table-I parameter
// summary, the number of averaging runs (JRSND_RUNS env, default 10; the
// paper averaged 100 — raise it for full fidelity), then one aligned table
// per panel whose rows mirror the series the paper plots.
//
// The micro benches (micro_sync_kernel, micro_transmit, dos_throughput,
// scale_sim, chaos_resilience) write their numbers through write_results,
// in the entry schema of bench/e2e --out that scripts/check_perf.py reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/discovery_sim.hpp"
#include "core/metrics.hpp"
#include "core/params.hpp"

namespace jrsnd::bench {

/// Averaging runs per sweep point: JRSND_RUNS env var, default 10.
[[nodiscard]] std::uint32_t runs_from_env();

/// Base experiment config: Table-I params + reactive jammer (the paper's
/// reported worst case) + the env-derived run count.
[[nodiscard]] core::ExperimentConfig default_config();

/// Prints the bench banner (figure id, what it reproduces, parameters,
/// Monte-Carlo thread count).
void print_banner(const std::string& experiment_id, const std::string& description,
                  const core::Params& params);

/// Runs one sweep point (`DiscoverySimulator(config).run_all()`) and times
/// it: prints "  [label] <wall> s" and accumulates the `bench.wall.seconds`
/// gauge, which lands in the .metrics.json snapshot next to each CSV.
[[nodiscard]] core::PointResult run_point(const core::ExperimentConfig& config,
                                          const std::string& label);

/// If the JRSND_CSV_DIR env var names a directory, writes `table` to
/// <dir>/<name>.csv (for plotting) plus a <dir>/<name>.metrics.json snapshot
/// of the obs metrics registry; otherwise does nothing.
void write_csv_if_requested(const std::string& name, const core::Table& table);

/// One micro-bench number. An empty `value` is a quantity this host could
/// not measure — a PMU count under the clock fallback, a SIMD backend the
/// CPU lacks — and is written as null with "measured": false, never as 0.
struct Result {
  std::string name;  // e.g. "dsss.batched_gchips_per_s.avx512.m40"
  std::string layer;
  std::optional<double> value;
  std::string unit;
  bool lower_is_better = false;
  std::size_t threads = 1;  // threads the measurement ran on (host.threads)
};

/// Writes `results` to `path` as a JSON list of entries {name, layer,
/// workload, value, unit, better, measured, host}. The workload is `bench`,
/// plus ".smoke" for a smoke run; host holds cores, threads, the active
/// SIMD, SHA-256 and profiler backends, the build type and the compiler.
/// Returns false, after saying why on stderr, when the file cannot be opened
/// or the write fails; the bench then exits nonzero.
[[nodiscard]] bool write_results(const std::string& path, const std::string& bench, bool smoke,
                                 std::span<const Result> results);

}  // namespace jrsnd::bench
