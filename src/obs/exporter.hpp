// Live telemetry export (docs/observability.md).
//
// Long Monte-Carlo sweeps used to be opaque until run_all() returned. The
// MetricsExporter snapshots the process registry on a background thread at a
// configurable interval and publishes:
//   * a Prometheus text-format file, atomically swapped (write tmp + rename)
//     so scrapers and `watch cat` never see a torn file;
//   * an append-only JSONL heartbeat stream (`export.heartbeat` events in
//     the standard trace schema) carrying every counter and gauge flat, so
//     `jrsnd report` and plain jq can plot progress over time.
//
// export_now() performs one synchronous export — the deterministic path
// tests use, and what the CLI calls once more on shutdown so the final
// state is always published.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics_registry.hpp"

namespace jrsnd::obs {

/// Serializes a snapshot in Prometheus text exposition format. Metric names
/// are prefixed and sanitized (non-alphanumerics become '_').
void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot,
                      std::string_view prefix = "jrsnd");

struct ExporterOptions {
  std::string prometheus_path;  ///< empty disables the Prometheus file
  std::string heartbeat_path;   ///< empty disables the JSONL heartbeat stream
  double interval_s = 1.0;      ///< background export period
  std::string prefix = "jrsnd";
  std::string source;  ///< free-form tag stamped on heartbeats (e.g. "simulate")
};

class MetricsExporter {
 public:
  explicit MetricsExporter(ExporterOptions options);
  ~MetricsExporter();  // stops the background thread and exports once more

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Starts the periodic background thread (no-op if already running or the
  /// interval is not positive).
  void start();
  /// Stops the background thread; safe to call repeatedly.
  void stop();

  /// One synchronous export of the current process registry. Returns false
  /// if any configured destination failed to write.
  bool export_now();

  [[nodiscard]] std::uint64_t exports() const noexcept;

 private:
  bool write_prometheus_file(const MetricsSnapshot& snapshot);
  bool append_heartbeat(const MetricsSnapshot& snapshot);
  void run();

  ExporterOptions options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  std::atomic<std::uint64_t> exports_{0};
};

}  // namespace jrsnd::obs
