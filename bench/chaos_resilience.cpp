// Chaos-resilience bench: how much injected message loss the hardened D-NDP
// absorbs through retransmission (docs/robustness.md).
//
//  [1] No-op equivalence: wrapping the PHY in a FaultyPhy with an inactive
//      plan must leave every discovery result bit-identical (the fault layer
//      costs nothing when idle). Verified, not just timed.
//  [2] Drop sweep: injected per-message drop in {5, 10, 20, 30}%, each run
//      with the retry discipline (max_retx = 3) and without. The acceptance
//      envelope — discovery under <= 20% drop recovers to >= 95% of the
//      fault-free ratio — is asserted; exit 1 on violation.
//  [3] A mixed plan (drop + corrupt + duplicate + reorder + crash windows)
//      as a smoke point for the full fault palette.
//
// Writes its results (bench_util.hpp, write_results) to
// chaos_resilience.json, path overridable as argv[1]. Exits nonzero on a
// no-op-plan mismatch, outside the envelope, or when the results cannot be
// written.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/discovery_sim.hpp"
#include "core/metrics.hpp"
#include "fault/fault_plan.hpp"

namespace {

using namespace jrsnd;

struct SweepPoint {
  double drop = 0.0;
  double p_retx = 0.0;
  double p_noretx = 0.0;
  double recovery = 0.0;
  std::uint64_t retransmissions = 0;
  std::uint64_t faults = 0;
};

struct RunSummary {
  double p_dndp = 0.0;
  std::uint64_t retransmissions = 0;
  std::uint64_t faults = 0;
  std::size_t discovered = 0;
};

RunSummary sweep_runs(const core::ExperimentConfig& cfg) {
  const core::DiscoverySimulator sim(cfg);
  core::Stat p;
  RunSummary out;
  for (std::uint32_t run = 0; run < cfg.params.runs; ++run) {
    const core::RunResult r = sim.run_once(cfg.base_seed + run);
    p.add(r.p_dndp);
    out.retransmissions += r.dndp_retransmissions;
    out.faults += r.faults_injected;
    out.discovered += r.dndp_discovered;
  }
  out.p_dndp = p.mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "chaos_resilience.json";

  core::ExperimentConfig cfg;
  cfg.params.n = 500;
  cfg.params.m = 40;
  cfg.params.l = 20;
  cfg.params.runs = 5;
  cfg.base_seed = 1;
  cfg.jammer = core::JammerKind::None;  // isolate the injected faults

  // [1] No-op equivalence: an inactive plan must change nothing.
  const RunSummary baseline = sweep_runs(cfg);
  core::ExperimentConfig noop = cfg;
  noop.faults = fault::FaultPlan{};  // all probabilities zero, no crashes
  const RunSummary wrapped = sweep_runs(noop);
  const bool noop_identical = baseline.p_dndp == wrapped.p_dndp &&
                              baseline.discovered == wrapped.discovered &&
                              wrapped.faults == 0;
  std::printf("no-op FaultPlan: P_dndp %.4f vs %.4f, %zu vs %zu discovered  %s\n",
              baseline.p_dndp, wrapped.p_dndp, baseline.discovered, wrapped.discovered,
              noop_identical ? "identical" : "RESULTS DIFFER");
  if (!noop_identical) return 1;

  // [2] Drop sweep with and without the retry discipline.
  constexpr std::uint32_t kRetx = 3;
  constexpr double kEnvelopeDrop = 0.2 + 1e-9;
  constexpr double kEnvelopeRecovery = 0.95;
  const std::vector<double> drops{0.05, 0.1, 0.2, 0.3};
  std::vector<SweepPoint> points;
  bool envelope_ok = true;

  std::printf("\nfault-free P_dndp: %.4f   (n=%u m=%u l=%u runs=%u, retx budget %u)\n",
              baseline.p_dndp, cfg.params.n, cfg.params.m, cfg.params.l, cfg.params.runs,
              kRetx);
  std::printf("%8s %14s %14s %10s %10s %8s\n", "drop", "P_dndp(retx)", "P_dndp(none)",
              "recovery", "retx", "faults");
  for (const double drop : drops) {
    fault::FaultPlan plan;
    plan.seed = cfg.base_seed;
    plan.drop = drop;

    core::ExperimentConfig with = cfg;
    with.faults = plan;
    with.params.retry.max_retx = kRetx;
    const RunSummary r_retx = sweep_runs(with);

    core::ExperimentConfig without = cfg;
    without.faults = plan;
    const RunSummary r_none = sweep_runs(without);

    SweepPoint pt;
    pt.drop = drop;
    pt.p_retx = r_retx.p_dndp;
    pt.p_noretx = r_none.p_dndp;
    pt.recovery = baseline.p_dndp > 0.0 ? r_retx.p_dndp / baseline.p_dndp : 1.0;
    pt.retransmissions = r_retx.retransmissions;
    pt.faults = r_retx.faults;
    if (drop <= kEnvelopeDrop && pt.recovery < kEnvelopeRecovery) envelope_ok = false;
    points.push_back(pt);
    std::printf("%8.2f %14.4f %14.4f %9.1f%% %10llu %8llu\n", drop, pt.p_retx, pt.p_noretx,
                100.0 * pt.recovery, static_cast<unsigned long long>(pt.retransmissions),
                static_cast<unsigned long long>(pt.faults));
  }
  std::printf("envelope (drop <= 0.20 recovers >= %.0f%%): %s\n", 100.0 * kEnvelopeRecovery,
              envelope_ok ? "PASS" : "FAIL");

  // [3] Mixed-fault smoke: the whole palette at once, still recovering.
  fault::FaultPlan mixed;
  mixed.seed = 7;
  mixed.drop = 0.1;
  mixed.corrupt = 0.02;
  mixed.corrupt_bits = 8;
  mixed.duplicate = 0.05;
  mixed.reorder = 0.05;
  mixed.auto_tick = 0.001;
  mixed.crashes.push_back(fault::CrashEvent{node_id(1), TimePoint{0.5}, Duration{1.0}});
  mixed.crashes.push_back(fault::CrashEvent{node_id(2), TimePoint{2.0}, Duration{0.5}});
  core::ExperimentConfig mixed_cfg = cfg;
  mixed_cfg.faults = mixed;
  mixed_cfg.params.retry.max_retx = kRetx;
  const RunSummary r_mixed = sweep_runs(mixed_cfg);
  const double mixed_recovery =
      baseline.p_dndp > 0.0 ? r_mixed.p_dndp / baseline.p_dndp : 1.0;
  std::printf("\nmixed plan: P_dndp %.4f (%.1f%% of fault-free), %llu faults, %llu retx\n",
              r_mixed.p_dndp, 100.0 * mixed_recovery,
              static_cast<unsigned long long>(r_mixed.faults),
              static_cast<unsigned long long>(r_mixed.retransmissions));

  std::vector<bench::Result> results = {
      {"fault.baseline_p_dndp", "fault", baseline.p_dndp, "ratio"},
  };
  for (const SweepPoint& pt : points) {
    char drop[16];
    std::snprintf(drop, sizeof drop, ".drop%.2f", pt.drop);
    results.insert(
        results.end(),
        {{std::string("fault.p_dndp_retx") + drop, "fault", pt.p_retx, "ratio"},
         {std::string("fault.p_dndp_noretx") + drop, "fault", pt.p_noretx, "ratio"},
         {std::string("fault.recovery") + drop, "fault", pt.recovery, "ratio"},
         {std::string("fault.retransmissions") + drop, "fault",
          static_cast<double>(pt.retransmissions), "frames", true},
         {std::string("fault.faults_injected") + drop, "fault", static_cast<double>(pt.faults),
          "faults"}});
  }
  results.insert(results.end(),
                 {{"fault.mixed.p_dndp", "fault", r_mixed.p_dndp, "ratio"},
                  {"fault.mixed.recovery", "fault", mixed_recovery, "ratio"},
                  {"fault.mixed.faults_injected", "fault", static_cast<double>(r_mixed.faults),
                   "faults"},
                  {"fault.mixed.retransmissions", "fault",
                   static_cast<double>(r_mixed.retransmissions), "frames", true}});
  const bool written = bench::write_results(json_path, "chaos_resilience", false, results);
  return envelope_ok && written ? 0 : 1;
}
