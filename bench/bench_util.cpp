#include "bench_util.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/logging.hpp"
#include "common/parse.hpp"
#include "common/thread_pool.hpp"
#include "crypto/sha256.hpp"
#include "dsss/sync_kernel.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prof/perf_counters.hpp"
#include "obs/sinks.hpp"

namespace jrsnd::bench {

std::uint32_t runs_from_env() {
  constexpr std::uint32_t kDefault = 10;
  const char* env = std::getenv("JRSND_RUNS");
  if (env == nullptr || env[0] == '\0') return kDefault;
  if (const auto runs = parse_u32(env); runs && *runs >= 1 && *runs <= 100000) return *runs;
  JRSND_WARN("bench") << "invalid JRSND_RUNS value '" << env
                      << "' (want an integer in 1..100000); using " << kDefault;
  return kDefault;
}

core::ExperimentConfig default_config() {
  // Figure benches are throughput-bound on the discovery engines, not the
  // counters; keep metrics on so every CSV gets a sibling snapshot.
  obs::set_metrics_enabled(true);
  core::ExperimentConfig cfg;
  cfg.params = core::Params::defaults();
  cfg.params.runs = runs_from_env();
  cfg.jammer = core::JammerKind::Reactive;
  // One M-NDP round over the D-NDP logical graph — the setting Theorem 3
  // models and the paper's figures report. In steady-state operation later
  // initiations also ride links earlier M-NDP rounds established
  // ("via D-NDP or M-NDP", §V-C); fig5 shows that closure effect
  // explicitly via mndp_rounds = 2.
  cfg.mndp_rounds = 1;
  cfg.base_seed = 20110620;  // ICDCS'11
  return cfg;
}

void print_banner(const std::string& experiment_id, const std::string& description,
                  const core::Params& params) {
  std::printf("================================================================\n");
  std::printf("JR-SND reproduction — %s\n", experiment_id.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("params: %s\n", params.summary().c_str());
  std::printf("jammer: reactive (paper's reported worst case); runs/point: %u",
              params.runs);
  if (params.runs < 100) std::printf(" (paper: 100 — set JRSND_RUNS=100 for full fidelity)");
  std::printf("\nthreads: %zu (JRSND_THREADS to override; 1 = serial)\n",
              ThreadPool::default_thread_count());
  std::printf("================================================================\n");
}

core::PointResult run_point(const core::ExperimentConfig& config, const std::string& label) {
  const auto start = std::chrono::steady_clock::now();
  core::PointResult result = core::DiscoverySimulator(config).run_all();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
  std::printf("  [%s] %.2f s\n", label.c_str(), wall.count());
  std::fflush(stdout);
  if (obs::metrics_enabled()) obs::registry().gauge("bench.wall.seconds").add(wall.count());
  return result;
}

void write_csv_if_requested(const std::string& name, const core::Table& table) {
  const char* dir = std::getenv("JRSND_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  table.print_csv(out);
  std::printf("(wrote %s)\n", path.c_str());

  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  if (snap.empty()) return;
  const std::string metrics_path = std::string(dir) + "/" + name + ".metrics.json";
  std::ofstream metrics_out(metrics_path);
  if (!metrics_out) {
    std::fprintf(stderr, "warning: cannot write %s\n", metrics_path.c_str());
    return;
  }
  snap.write_json(metrics_out);
  std::printf("(wrote %s)\n", metrics_path.c_str());
}

namespace {

std::string quoted(std::string_view s) { return '"' + obs::json_escape(s) + '"'; }

/// Shortest round-trip form of a finite number; null otherwise.
std::string number(std::optional<double> v) {
  if (!v || !std::isfinite(*v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, *v);
  return std::string(buf, res.ptr);
}

}  // namespace

bool write_results(const std::string& path, const std::string& bench, bool smoke,
                   std::span<const Result> results) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string workload = quoted(smoke ? bench + ".smoke" : bench);
  const std::string host_tail =
      ",\"simd_dsss\":" + quoted(dsss::simd_backend_name(dsss::simd_backend())) +
      ",\"sha256\":" + quoted(crypto::sha256_backend_name(crypto::sha256_backend())) +
      ",\"prof_backend\":" + quoted(obs::prof::backend_name(obs::prof::prof_backend())) +
      ",\"build_type\":" + quoted(JRSND_BENCH_BUILD_TYPE) +
      ",\"compiler\":" + quoted(JRSND_BENCH_COMPILER) + "}}";
  const std::string cores = std::to_string(std::thread::hardware_concurrency());
  out << '[';
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const std::string value = number(r.value);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << quoted(r.name)
        << ",\"layer\":" << quoted(r.layer) << ",\"workload\":" << workload
        << ",\"value\":" << value << ",\"unit\":" << quoted(r.unit)
        << ",\"better\":" << (r.lower_is_better ? "\"lower\"" : "\"higher\"")
        << ",\"measured\":" << (value == "null" ? "false" : "true")
        << ",\"host\":{\"cores\":" << cores << ",\"threads\":" << r.threads << host_tail;
  }
  out << "\n]\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "FAIL: writing %s failed\n", path.c_str());
    return false;
  }
  std::printf("(wrote %zu results to %s)\n", results.size(), path.c_str());
  return true;
}

}  // namespace jrsnd::bench
