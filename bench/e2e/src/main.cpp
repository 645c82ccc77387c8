// e2e_discovery — one workload of the end-to-end discovery benchmark, in one
// process. bench/e2e/run.py builds it and drives every workload; run it by
// hand as
//
//   e2e_discovery --workload fig2_random --seed 1 [--reps 7 | --seconds 10]
//   e2e_discovery --workload fig2_random --seed 1 --trace trace.json
//
// Without --trace it runs the timed pass (tracing off; end-to-end metrics).
// With --trace FILE it runs the serial traced pass instead (per-layer
// metrics) and writes the spans to FILE. --smoke shrinks every input but
// keeps every check. Either way it prints one JSON object on stdout and
// exits 1 when a correctness check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "crypto/sha256_multi.hpp"
#include "dsss/sync_kernel.hpp"
#include "obs/prof/perf_counters.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

int usage(const char* why) {
  std::fprintf(stderr, "e2e_discovery: %s\n", why);
  std::fprintf(stderr,
               "usage: e2e_discovery --workload NAME [--seed N] [--reps N | --seconds S]\n"
               "                     [--trace FILE] [--smoke]\n"
               "workloads:");
  for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

std::string host_json(std::size_t threads) {
  std::string out = "{\"cores\":" + std::to_string(std::thread::hardware_concurrency()) +
                    ",\"threads\":" + std::to_string(threads) + ",\"simd_dsss\":";
  json_string(out, jrsnd::dsss::simd_backend_name(jrsnd::dsss::simd_backend()));
  out += ",\"simd_crypto\":";
  json_string(out, jrsnd::crypto::hash_backend_name(jrsnd::crypto::hash_backend()));
  out += ",\"prof_backend\":";
  json_string(out, jrsnd::obs::prof::backend_name(jrsnd::obs::prof::prof_backend()));
  out += ",\"build_type\":";
  json_string(out, JRSND_E2E_BUILD_TYPE);
  out += ",\"compiler\":";
  json_string(out, JRSND_E2E_COMPILER);
  out += '}';
  return out;
}

std::string result_json(const Options& options, const PassResult& r) {
  std::string out = "{\"workload\":";
  json_string(out, options.workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += options.trace_path.empty() ? ",\"pass\":\"timed\"" : ",\"pass\":\"traced\"";
  out += ",\"attempted\":" + std::to_string(r.checks.attempted);
  out += ",\"failed\":" + std::to_string(r.checks.failed);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < r.checks.failures.size(); ++i) {
    if (i > 0) out += ',';
    json_string(out, r.checks.failures[i]);
  }
  out += "],\"serial_runs_per_s\":";
  json_number(out, r.serial_runs_per_s);
  out += ",\"host\":" + host_json(r.threads);
  out += ",\"metrics\":[";
  bool first = true;
  for (const Metric& m : r.metrics.entries()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":";
    json_string(out, m.name);
    out += ",\"layer\":";
    json_string(out, m.layer);
    out += ",\"workload\":";
    json_string(out, options.workload);
    out += ",\"value\":";
    json_number(out, m.value);
    out += ",\"unit\":";
    json_string(out, m.unit);
    out += ",\"better\":";
    json_string(out, m.better);
    out += m.value ? ",\"measured\":true" : ",\"measured\":false";
    out += ",\"n\":" + std::to_string(m.n);
    out += ",\"q1\":";
    json_number(out, m.value ? std::optional(m.q1) : std::nullopt);
    out += ",\"q3\":";
    json_number(out, m.value ? std::optional(m.q3) : std::nullopt);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      if (!parse_u64(argv[++i], options.seed)) return usage("--seed takes an unsigned integer");
    } else if (arg == "--reps" && has_value) {
      std::uint64_t reps = 0;
      if (!parse_u64(argv[++i], reps) || reps < 1 || reps > 1000) {
        return usage("--reps takes an integer in [1, 1000]");
      }
      options.reps = reps;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      options.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(options.seconds > 0.0 && options.seconds <= 600.0)) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace" && has_value) {
      options.trace_path = argv[++i];
    } else {
      return usage(("unknown or incomplete argument: " + arg).c_str());
    }
  }
  const std::unique_ptr<Workload> workload =
      make_workload(options.workload, options.seed, options.smoke);
  if (!workload) return usage("--workload names no workload");

  PassResult result;
  if (options.trace_path.empty()) {
    result = run_timed(*workload, options);
  } else {
    result.threads = workload->threads();
    workload->traced(options.trace_path, result);
  }
  const std::string json = result_json(options, result);
  std::fwrite(json.data(), 1, json.size(), stdout);
  for (const std::string& failure : result.checks.failures) {
    std::fprintf(stderr, "e2e_discovery: check failed: %s\n", failure.c_str());
  }
  return result.checks.failed == 0 ? 0 : 1;
}
