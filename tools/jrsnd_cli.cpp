// jrsnd — command-line driver for the library.
//
//   jrsnd analyze   [--n --m --l --q --z --mu --nu]   closed-form numbers
//   jrsnd analyze   FILE [--top K]                     the one JSONL trace
//                                                      reader (strict: exits 2
//                                                      on a malformed line)
//   jrsnd simulate  [--n --m --l --q --nu --runs --seed --jammer]
//                   [--full-mndp] [--field METRES] [--mndp-rounds N]
//                   [--trace-out FILE] [--trace-wall] [--metrics]
//                   [--flight-dump FILE]
//                   [--profile-out FILE] [--profile-hz N]
//                                                      Monte-Carlo discovery
//   jrsnd profile   --out FILE [--hz N] [simulate flags]
//                                                      profiled simulate run:
//                                                      folded stacks + counter
//                                                      regions (prof.*)
//   jrsnd trace     [--seed] [--jsonl]                 one D-NDP handshake,
//                                                      message by message
//   jrsnd provision --node <id> [--n --m --l --chips]  hex provisioning blob
//   jrsnd chaos     [--n --m --l --q --runs --seed ...] fault-injection sweep
//
// Every flag defaults to Table I. Flags without a value ("--metrics") are
// booleans; a flag the subcommand does not read is a usage error. Exit code
// 0 on success, 2 on usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "jrsnd.hpp"

namespace {

using namespace jrsnd;

/// A flag whose value does not parse; main() reports it and exits 2.
struct BadFlagValue {
  std::string flag;
  std::string text;
};

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positionals;

  [[nodiscard]] bool has(const std::string& key) const { return flags.contains(key); }
  [[nodiscard]] std::uint32_t u32(const std::string& key, std::uint32_t fallback) const {
    return number(key, fallback, parse_u32);
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    return number(key, fallback, parse_u64);
  }
  [[nodiscard]] double real(const std::string& key, double fallback) const {
    return number(key, fallback, parse_double);
  }
  [[nodiscard]] std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }

 private:
  template <typename T, typename Parse>
  [[nodiscard]] T number(const std::string& key, T fallback, Parse parse) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::optional<T> value = parse(it->second);
    if (!value.has_value()) throw BadFlagValue{key, it->second};
    return *value;
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: jrsnd <analyze|simulate|profile|trace|provision|chaos> "
               "[--flag [value]]...\n"
               "  analyze   --n --m --l --q --z --mu --nu       closed forms (Thms 1-4)\n"
               "  analyze   FILE [--top K]                       summarize a JSONL trace: counts,\n"
               "            delivery ratios, stage latency percentiles, loss attribution\n"
               "  simulate  --n --m --l --q --nu --runs --seed --jammer {none,random,\n"
               "            reactive,intelligent}                Monte-Carlo discovery\n"
               "            --full-mndp         run the complete M-NDP engine (signed\n"
               "                                request/response chains) instead of\n"
               "                                the logical-graph closure\n"
               "            --field METRES      square field side (default 5000)\n"
               "            --mndp-rounds N     logical-graph closure rounds (default 1;\n"
               "                                --full-mndp runs one engine round)\n"
               "            --trace-out FILE    write a JSONL event trace\n"
               "            --trace-wall        add wall_us to span.end events\n"
               "            --metrics           print the metrics table afterwards\n"
               "            --flight-dump FILE  flight-recorder dump destination\n"
               "                                (crash events + fatal signals)\n"
               "            --profile-out FILE  folded-stack CPU profile + prof.* counter\n"
               "                                regions (see also `jrsnd profile`)\n"
               "            --profile-hz N      sample rate (default 199)\n"
               "  profile   --out FILE [--hz N] [simulate flags] profiled simulate run\n"
               "  trace     --seed [--jsonl]                     one traced D-NDP run\n"
               "  provision --node <id> --n --m --l --chips      provisioning blob (hex)\n"
               "  chaos     --n --m --l --q --runs --seed --retx sweep injected message\n"
               "            drop and assert the retry discipline's recovery envelope\n"
               "            --smoke             small fast configuration (CI)\n"
               "            --drops 0.05,0.1,.. drop intensities to sweep\n"
               "            --plan FILE         run one FaultPlan JSON instead of a sweep\n"
               "            --json FILE         write the sweep results as JSON\n");
  return 2;
}

core::Params params_from(const Args& args) {
  core::Params p = core::Params::defaults();
  p.n = args.u32("n", p.n);
  p.m = args.u32("m", p.m);
  p.l = args.u32("l", p.l);
  p.q = args.u32("q", p.q);
  p.z = args.u32("z", p.z);
  p.nu = args.u32("nu", p.nu);
  p.mu = args.real("mu", p.mu);
  p.runs = args.u32("runs", 10);
  return p;
}

/// The --jammer value by its jammer_name(); nullopt for an unknown name.
std::optional<core::JammerKind> jammer_from(const std::string& name) {
  for (const core::JammerKind kind : {core::JammerKind::None, core::JammerKind::Random,
                                      core::JammerKind::Reactive, core::JammerKind::Intelligent}) {
    if (name == core::jammer_name(kind)) return kind;
  }
  return std::nullopt;
}

/// `jrsnd analyze FILE` — the offline trace reader. Strict read: a trace
/// with a broken line is a broken trace, so the first malformed line aborts
/// with its 1-based number (exit 2) instead of a skip biasing every count.
int cmd_analyze_trace(const Args& args) {
  const std::string& path = args.positionals.front();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return 2;
  }
  std::vector<obs::TraceEvent> events;
  obs::TraceReadError error;
  if (!obs::read_trace_jsonl(in, events, &error)) {
    std::fprintf(stderr, "error: %s:%zu: %s\n", path.c_str(), error.line,
                 error.message.c_str());
    return 2;
  }
  obs::normalize_trace(events);
  const obs::TraceAnalysis analysis = obs::analyze_trace(events);
  std::printf("trace: %s\n", path.c_str());
  obs::print_analysis(std::cout, analysis, args.u32("top", 10));
  // A trace with failed attempts must attribute each to exactly one stage;
  // surface a broken invariant through the exit code so CI catches it.
  return analysis.attribution_complete() ? 0 : 1;
}

int cmd_analyze(const Args& args) {
  if (!args.positionals.empty()) return cmd_analyze_trace(args);
  const core::Params p = params_from(args);
  const core::Theorem1Result t1 = core::theorem1(p);
  const double g = core::expected_degree(p);
  std::printf("config: %s\n\n", p.summary().c_str());
  std::printf("pool size s                 : %u\n", p.pool_size());
  std::printf("P(share >= 1 code)          : %.4f\n", core::pr_share_at_least_one(p));
  std::printf("alpha (Eq. 2)               : %.4f\n", t1.alpha);
  std::printf("E[compromised codes] c      : %.1f\n", t1.c);
  std::printf("Theorem 1: P^- <= P_D <= P^+: %.4f <= P_D <= %.4f\n", t1.p_lower, t1.p_upper);
  std::printf("Theorem 2: T_dndp           : %.3f s\n", core::theorem2_dndp_latency(p));
  std::printf("Theorem 3: P_M (nu = 2)     : %.4f (at P_D = P^-)\n",
              core::theorem3_mndp_probability(t1.p_lower, g));
  std::printf("recursion: P_M (nu = %u)     : %.4f\n", p.nu,
              core::mndp_probability_recursive(t1.p_lower, g, p.nu));
  std::printf("Theorem 4: T_mndp (nu = %u)  : %.3f s\n", p.nu,
              core::theorem4_mndp_latency(p, g));
  std::printf("JR-SND: P >= %.4f, T = %.3f s\n",
              core::jrsnd_probability(t1.p_lower,
                                      core::mndp_probability_recursive(t1.p_lower, g, p.nu)),
              core::jrsnd_latency(core::theorem2_dndp_latency(p),
                                  core::theorem4_mndp_latency(p, g)));
  return 0;
}

/// One clean-channel D-NDP handshake over the chip-accurate PHY. The big
/// Monte-Carlo sweep runs on AbstractPhy (Theorem 1 fates, no chips), so this
/// small deterministic sample is what puts real numbers behind the
/// dsss.sync.* / dsss.correlator.* / ecc.rs.* metrics in `--metrics` output.
void run_chip_calibration(std::uint64_t seed) {
  core::Params p = core::Params::defaults();
  p.n = 2;
  p.m = 4;
  p.l = 2;
  p.N = 128;
  p.tau = 0.3;  // scaled for N = 128
  const predist::CodePoolAuthority authority(p.predist(), Rng(seed));
  const crypto::IbcAuthority ibc(seed + 1);
  const sim::Field field(100.0, 100.0);
  const sim::Topology topology(field, {{10, 10}, {20, 10}}, 50.0);
  adversary::NullJammer jammer;
  Rng phy_rng(seed + 2);
  Rng node_rng(seed + 3);
  std::vector<core::NodeState> nodes = core::issue_nodes(authority, ibc, p.n, p.gamma, node_rng);
  dsss::NodeCodebookCache code_cache;
  core::ChipPhy phy(p, topology, jammer, core::usable_codebook(nodes, code_cache), phy_rng);
  core::DndpEngine engine(p, phy);
  (void)engine.run(nodes[0], nodes[1]);
}

int cmd_simulate(const Args& args) {
  core::ExperimentConfig cfg;
  cfg.params = params_from(args);
  cfg.base_seed = args.u64("seed", 1);
  const std::optional<core::JammerKind> jammer = jammer_from(args.str("jammer", "reactive"));
  if (!jammer.has_value()) return usage();
  cfg.jammer = *jammer;
  cfg.full_mndp = args.has("full-mndp");
  if (args.has("field")) {
    const double side = args.real("field", 0.0);
    if (!(side > 0.0) || !std::isfinite(side)) throw BadFlagValue{"field", args.str("field", "")};
    cfg.params.field_width = side;
    cfg.params.field_height = side;
  }
  cfg.mndp_rounds = args.u32("mndp-rounds", cfg.mndp_rounds);
  if (cfg.mndp_rounds == 0) throw BadFlagValue{"mndp-rounds", args.str("mndp-rounds", "")};

  std::shared_ptr<obs::JsonlFileSink> trace_sink;
  if (args.has("trace-out")) {
    const std::string path = args.str("trace-out", "");
    trace_sink = std::make_shared<obs::JsonlFileSink>(path);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "error: cannot open trace file '%s'\n", path.c_str());
      return 2;
    }
    obs::event_log().attach(trace_sink);
    obs::set_tracing_enabled(true);
  }
  if (args.has("trace-wall")) obs::set_span_wall_clock(true);
  if (args.has("flight-dump")) {
    // Crash-event dumps (FaultyPhy) and fatal-signal postmortems both land
    // at this path.
    obs::install_flight_crash_handler(args.str("flight-dump", ""));
  }
  const bool want_metrics = args.has("metrics");
  const bool want_profile = args.has("profile-out");
  if (want_profile) {
    // Counter regions flow through the metrics registry; the sampler is
    // independent of it but the two belong to the same profiling story.
    // Armed before the calibration sample below so the chip-level regions
    // (dsss.*, ecc.*, crypto.*, phy.transmit) record their one real pass.
    obs::set_metrics_enabled(true);
    obs::prof::set_prof_enabled(true);
    obs::prof::ProfilerOptions popt;
    popt.hz = args.u32("profile-hz", popt.hz);
    if (!obs::prof::profiler_start(popt)) {
      std::fprintf(stderr, "warning: sampling profiler failed to start "
                           "(counter regions still collected)\n");
    }
  }
  if (want_metrics || want_profile) {
    obs::set_metrics_enabled(true);
    obs::preregister_core_metrics();
    // Exercise the chip-level pipeline once so the dsss/ecc counters reflect
    // a real sync + decode, not just preregistered zeros.
    run_chip_calibration(cfg.base_seed);
  }

  std::printf("config: %s, jammer=%s, seed=%llu", cfg.params.summary().c_str(),
              core::jammer_name(cfg.jammer),
              static_cast<unsigned long long>(cfg.base_seed));
  // Named only when it differs from the default, so default runs print the
  // config line they always have.
  if (cfg.mndp_rounds != 1) std::printf(", mndp_rounds=%u", cfg.mndp_rounds);
  std::printf("\n");
  const core::PointResult r = core::DiscoverySimulator(cfg).run_all();
  std::printf("P_dndp   : %.4f +- %.4f\n", r.p_dndp.mean(), r.p_dndp.ci95());
  std::printf("P_mndp   : %.4f +- %.4f (standalone)\n", r.p_mndp.mean(), r.p_mndp.ci95());
  std::printf("P_jrsnd  : %.4f +- %.4f\n", r.p_jrsnd.mean(), r.p_jrsnd.ci95());
  std::printf("T_dndp   : %.3f s   T_mndp: %.3f s   T_jrsnd: %.3f s\n",
              r.latency_dndp.mean(), r.latency_mndp.mean(), r.latency_jrsnd.mean());
  std::printf("degree g : %.2f    compromised codes: %.0f\n", r.degree.mean(),
              r.compromised_codes.mean());
  if (cfg.full_mndp) {
    std::printf("M-NDP    : %.1f signature verifications per run\n",
                r.signature_verifications.mean());
  }

  if (want_profile) {
    obs::prof::profiler_stop();
    const std::string path = args.str("profile-out", "");
    if (!obs::prof::dump_folded_file(path.c_str())) {
      std::fprintf(stderr, "error: cannot write profile '%s'\n", path.c_str());
      return 2;
    }
    std::printf("profile: %llu samples (%llu dropped) -> %s [backend=%s]\n",
                static_cast<unsigned long long>(obs::prof::profiler_samples()),
                static_cast<unsigned long long>(obs::prof::profiler_dropped()), path.c_str(),
                obs::prof::backend_name(obs::prof::prof_backend()));
  }
  if (want_metrics) {
    std::printf("\n");
    obs::registry().snapshot().print_table(std::cout);
  }
  if (trace_sink) {
    obs::event_log().flush();
    obs::set_tracing_enabled(false);
    obs::event_log().detach_all();
    std::printf("\ntrace: %llu events -> %s\n",
                static_cast<unsigned long long>(obs::event_log().emitted()),
                args.str("trace-out", "").c_str());
  }
  return 0;
}

/// `jrsnd profile` — a profiled `simulate`. Sugar: `--out`/`--hz` map onto
/// `--profile-out`/`--profile-hz`, every other simulate flag passes through.
int cmd_profile(const Args& args) {
  if (!args.has("out") && !args.has("profile-out")) {
    std::fprintf(stderr, "error: profile needs --out FILE\n");
    return usage();
  }
  Args simulate = args;
  if (args.has("out")) simulate.flags["profile-out"] = args.str("out", "");
  if (args.has("hz")) simulate.flags["profile-hz"] = args.str("hz", "");
  return cmd_simulate(simulate);
}

int cmd_trace(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 1);
  core::Params p = core::Params::defaults();
  p.n = 2;
  p.m = 4;
  p.l = 2;
  p.N = 64;
  const predist::CodePoolAuthority authority(p.predist(), Rng(seed));
  const crypto::IbcAuthority ibc(seed + 1);
  const sim::Field field(100.0, 100.0);
  const sim::Topology topology(field, {{10, 10}, {20, 10}}, 50.0);
  adversary::NullJammer jammer;
  Rng phy_rng(seed + 2);
  core::AbstractPhy inner(topology, jammer, phy_rng);
  core::TracingPhy phy(inner);
  Rng node_rng(seed + 3);
  std::vector<core::NodeState> nodes = core::issue_nodes(authority, ibc, p.n, p.gamma, node_rng);
  core::DndpEngine engine(p, phy);
  const core::DndpResult result = engine.run(nodes[0], nodes[1]);
  if (args.has("jsonl")) {
    phy.print_jsonl(std::cout);
    return 0;
  }
  std::printf("D-NDP between nodes 0 and 1 (%u shared codes):\n", result.shared_codes);
  phy.print(std::cout);
  std::printf("outcome: %s\n", result.discovered ? "discovered + authenticated" : "failed");
  if (result.discovered) {
    std::printf("session code: %s...\n",
                nodes[0].neighbor(node_id(1))->session_code.slice(0, 48).to_string().c_str());
  }
  return 0;
}

struct ChaosRun {
  double p_dndp = 0.0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t faults = 0;
};

/// Serial seed loop (a chaos sweep is a handful of small points; run-order
/// determinism matters more than wall clock here).
ChaosRun chaos_run(const core::ExperimentConfig& cfg) {
  const core::DiscoverySimulator sim(cfg);
  core::Stat p;
  ChaosRun out;
  for (std::uint32_t run = 0; run < cfg.params.runs; ++run) {
    const core::RunResult r = sim.run_once(cfg.base_seed + run);
    p.add(r.p_dndp);
    out.retransmissions += r.dndp_retransmissions;
    out.timeouts += r.dndp_timeouts;
    out.faults += r.faults_injected;
  }
  out.p_dndp = p.mean();
  return out;
}

int cmd_chaos(const Args& args) {
  const bool smoke = args.has("smoke");
  core::ExperimentConfig cfg;
  cfg.params = params_from(args);
  if (!args.has("n")) cfg.params.n = smoke ? 250 : 500;
  if (!args.has("m")) cfg.params.m = smoke ? 30 : 40;
  if (!args.has("l")) cfg.params.l = 20;
  if (!args.has("runs")) cfg.params.runs = smoke ? 3 : 5;
  cfg.base_seed = args.u64("seed", 1);

  // Default jammer: none — the sweep isolates the injected faults so the
  // degradation envelope measures the retry discipline, not Theorem 1.
  const std::optional<core::JammerKind> jammer = jammer_from(args.str("jammer", "none"));
  if (!jammer.has_value()) return usage();
  cfg.jammer = *jammer;

  const std::uint32_t retx = args.u32("retx", 3);

  if (args.has("plan")) {
    const std::string path = args.str("plan", "");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open plan '%s'\n", path.c_str());
      return 2;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::string error;
    const auto plan = fault::FaultPlan::from_json(text, &error);
    if (!plan.has_value()) {
      std::fprintf(stderr, "error: bad fault plan: %s\n", error.c_str());
      return 2;
    }
    std::printf("config: %s, jammer=%s, retx=%u\n", cfg.params.summary().c_str(),
                core::jammer_name(cfg.jammer), retx);
    std::printf("plan  : %s\n", plan->to_json().c_str());
    const ChaosRun clean = chaos_run(cfg);
    cfg.params.retry.max_retx = retx;
    cfg.faults = plan;
    const ChaosRun faulted = chaos_run(cfg);
    std::printf("fault-free P_dndp : %.4f\n", clean.p_dndp);
    std::printf("faulted    P_dndp : %.4f (%llu faults injected, %llu retx, %llu timeouts)\n",
                faulted.p_dndp, static_cast<unsigned long long>(faulted.faults),
                static_cast<unsigned long long>(faulted.retransmissions),
                static_cast<unsigned long long>(faulted.timeouts));
    return 0;
  }

  std::vector<double> drops;
  if (args.has("drops")) {
    const std::string list = args.str("drops", "");
    std::istringstream ss(list);
    for (std::string item; std::getline(ss, item, ',');) {
      const std::optional<double> drop = parse_double(item);
      if (!drop.has_value()) throw BadFlagValue{"drops", list};
      drops.push_back(*drop);
    }
    if (drops.empty()) return usage();
  } else {
    drops = smoke ? std::vector<double>{0.1, 0.2} : std::vector<double>{0.05, 0.1, 0.2, 0.3};
  }

  std::printf("config: %s, jammer=%s, retx=%u\n", cfg.params.summary().c_str(),
              core::jammer_name(cfg.jammer), retx);

  const ChaosRun baseline = chaos_run(cfg);
  std::printf("fault-free P_dndp: %.4f\n\n", baseline.p_dndp);
  std::printf("%8s %14s %14s %10s %10s %8s\n", "drop", "P_dndp(retx)", "P_dndp(none)",
              "recovery", "retx", "faults");

  struct Point {
    double drop, p_retx, p_noretx, recovery;
    std::uint64_t retransmissions, faults;
  };
  std::vector<Point> points;
  bool envelope_ok = true;
  // The acceptance envelope: with retransmission enabled, discovery under
  // <= 20% injected drop recovers to >= 95% of the fault-free ratio.
  constexpr double kEnvelopeDrop = 0.2 + 1e-9;
  constexpr double kEnvelopeRecovery = 0.95;

  for (const double drop : drops) {
    fault::FaultPlan plan;
    plan.seed = cfg.base_seed;
    plan.drop = drop;

    core::ExperimentConfig with = cfg;
    with.faults = plan;
    with.params.retry.max_retx = retx;
    const ChaosRun r_retx = chaos_run(with);

    core::ExperimentConfig without = cfg;
    without.faults = plan;
    const ChaosRun r_none = chaos_run(without);

    const double recovery =
        baseline.p_dndp > 0.0 ? r_retx.p_dndp / baseline.p_dndp : 1.0;
    if (drop <= kEnvelopeDrop && recovery < kEnvelopeRecovery) envelope_ok = false;
    points.push_back(Point{drop, r_retx.p_dndp, r_none.p_dndp, recovery,
                           r_retx.retransmissions, r_retx.faults});
    std::printf("%8.2f %14.4f %14.4f %9.1f%% %10llu %8llu\n", drop, r_retx.p_dndp,
                r_none.p_dndp, 100.0 * recovery,
                static_cast<unsigned long long>(r_retx.retransmissions),
                static_cast<unsigned long long>(r_retx.faults));
  }

  std::printf("\nenvelope (drop <= %.2f recovers >= %.0f%%): %s\n", 0.2,
              100.0 * kEnvelopeRecovery, envelope_ok ? "PASS" : "FAIL");

  if (args.has("json")) {
    const std::string path = args.str("json", "");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
      return 2;
    }
    out << "{\n  \"bench\": \"chaos\",\n";
    out << "  \"config\": {\"n\": " << cfg.params.n << ", \"m\": " << cfg.params.m
        << ", \"l\": " << cfg.params.l << ", \"q\": " << cfg.params.q
        << ", \"runs\": " << cfg.params.runs << ", \"seed\": " << cfg.base_seed
        << ", \"jammer\": \"" << core::jammer_name(cfg.jammer) << "\", \"retx\": " << retx
        << "},\n";
    out << "  \"baseline_p_dndp\": " << baseline.p_dndp << ",\n  \"sweep\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& pt = points[i];
      out << "    {\"drop\": " << pt.drop << ", \"p_dndp_retx\": " << pt.p_retx
          << ", \"p_dndp_noretx\": " << pt.p_noretx << ", \"recovery\": " << pt.recovery
          << ", \"retransmissions\": " << pt.retransmissions
          << ", \"faults_injected\": " << pt.faults << "}" << (i + 1 < points.size() ? "," : "")
          << "\n";
    }
    out << "  ],\n  \"envelope\": {\"max_drop\": 0.2, \"min_recovery\": "
        << kEnvelopeRecovery << ", \"pass\": " << (envelope_ok ? "true" : "false")
        << "}\n}\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return envelope_ok ? 0 : 1;
}

int cmd_provision(const Args& args) {
  if (!args.flags.contains("node")) return usage();
  predist::PredistParams pp;
  pp.node_count = args.u32("n", 100);
  pp.codes_per_node = args.u32("m", 10);
  pp.holders_per_code = args.u32("l", 8);
  pp.code_length_chips = args.u32("chips", 128);
  const std::uint32_t node = args.u32("node", 0);
  if (node >= pp.node_count) {
    std::fprintf(stderr, "error: node %u out of range [0, %u)\n", node, pp.node_count);
    return 2;
  }
  const predist::CodePoolAuthority authority(pp, Rng(args.u64("seed", 1)));
  const auto blob = predist::provision_node(authority, node_id(node));
  const auto bytes = blob.serialize();
  std::printf("node %u: %u codes x %u chips, blob %zu bytes\n", node, pp.codes_per_node,
              static_cast<std::uint32_t>(pp.code_length_chips), bytes.size());
  std::printf("%s\n", to_hex(bytes).c_str());
  return 0;
}

/// Space-separated flag lists, combined per subcommand below.
constexpr std::string_view kParamFlags = "n m l q z nu mu runs";
constexpr std::string_view kSimulateFlags =
    "seed jammer full-mndp field mndp-rounds trace-out trace-wall metrics flight-dump "
    "profile-out profile-hz";

struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::string_view flags[3];  ///< every flag the subcommand reads
};

constexpr Command kCommands[] = {
    {"analyze", cmd_analyze, {kParamFlags, "top"}},
    {"simulate", cmd_simulate, {kParamFlags, kSimulateFlags}},
    {"profile", cmd_profile, {kParamFlags, kSimulateFlags, "out hz"}},
    {"trace", cmd_trace, {"seed jsonl"}},
    {"provision", cmd_provision, {"node n m l chips seed"}},
    {"chaos", cmd_chaos, {kParamFlags, "smoke seed jammer retx plan drops json"}},
};

bool reads_flag(const Command& command, std::string_view flag) {
  for (std::string_view list : command.flags) {
    while (!list.empty()) {
      const std::size_t end = std::min(list.find(' '), list.size());
      if (list.substr(0, end) == flag) return true;
      list.remove_prefix(std::min(end + 1, list.size()));
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) == 0) {
      // "--flag value" when a non-flag token follows, else boolean "--flag".
      const bool has_value = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
      args.flags[arg + 2] = std::string(has_value ? argv[++i] : "1");
    } else {
      args.positionals.emplace_back(arg);
    }
  }
  const auto command = std::find_if(std::begin(kCommands), std::end(kCommands),
                                    [&](const Command& c) { return c.name == args.command; });
  if (command == std::end(kCommands)) return usage();
  for (const auto& [flag, value] : args.flags) {
    if (!reads_flag(*command, flag)) {
      std::fprintf(stderr, "error: unknown flag --%s\n", flag.c_str());
      return 2;
    }
  }
  try {
    return command->run(args);
  } catch (const BadFlagValue& bad) {
    std::fprintf(stderr, "error: invalid value for --%s: '%s'\n", bad.flag.c_str(),
                 bad.text.c_str());
    return 2;
  }
}
