#include "core/discovery_sim.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "core/analysis.hpp"
#include "core/dndp.hpp"
#include "core/latency.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prof/perf_counters.hpp"
#include "sim/mobility.hpp"

namespace jrsnd::core {

const char* jammer_name(JammerKind kind) noexcept {
  switch (kind) {
    case JammerKind::None: return "none";
    case JammerKind::Random: return "random";
    case JammerKind::Reactive: return "reactive";
    case JammerKind::Intelligent: return "intelligent";
  }
  return "?";
}

namespace {

sim::Topology place_nodes(const Params& p, Rng& root) {
  const sim::Field field(p.field_width, p.field_height);
  Rng placement_rng = root.split();
  const sim::UniformPlacement placement(field, p.n, placement_rng);
  return sim::Topology(field, placement.snapshot(kSimStart), p.tx_range);
}

adversary::CompromiseModel compromise_nodes(const predist::CodeAssignment& assignment,
                                            std::uint32_t q, Rng& root) {
  Rng adversary_rng = root.split();
  return adversary::CompromiseModel(assignment, q, adversary_rng);
}

std::unique_ptr<adversary::Jammer> make_jammer(JammerKind kind,
                                               const adversary::CompromiseModel& compromise,
                                               const Params& p) {
  const adversary::JammerParams jp{p.z, p.mu};
  switch (kind) {
    case JammerKind::None: break;
    case JammerKind::Random: return std::make_unique<adversary::RandomJammer>(compromise, jp);
    case JammerKind::Reactive:
      return std::make_unique<adversary::ReactiveJammer>(compromise, jp);
    case JammerKind::Intelligent:
      return std::make_unique<adversary::IntelligentJammer>(compromise);
  }
  return std::make_unique<adversary::NullJammer>();
}

}  // namespace

World::World(const ExperimentConfig& cfg, std::uint64_t run_seed)
    : config(cfg),
      seed(run_seed),
      root(run_seed),
      authority(config.params.predist(), root.split()),
      topology(place_nodes(config.params, root)),
      compromise(compromise_nodes(authority.assignment(), config.params.q, root)),
      jammer(make_jammer(config.jammer, compromise, config.params)),
      ibc(root.next()),
      nodes(issue_nodes(authority, ibc, config.params.n, config.params.gamma, root)),
      phy_rng(root.split()),
      phy(topology, *jammer, phy_rng) {
  if (config.faults.has_value()) faulty.emplace(phy, *config.faults, seed);
}

PhyModel& World::active_phy() noexcept {
  if (faulty.has_value()) return *faulty;
  return phy;
}

DndpPass World::run_dndp() {
  const HandshakeClock* clock = faulty.has_value() ? &faulty->clocks() : nullptr;
  DndpEngine dndp(config.params, active_phy(), config.redundancy, seed, clock);
  DndpPass pass(nodes.size());
  Rng order_rng = root.split();
  for (const auto& [a, b] : topology.pairs()) {
    const bool a_first = order_rng.bernoulli(0.5);
    const DndpResult r = dndp.run(nodes[raw(a_first ? a : b)], nodes[raw(a_first ? b : a)]);
    pass.retransmissions += r.retransmissions;
    pass.timeouts += r.timeouts;
    if (r.discovered) {
      ++pass.discovered;
      pass.logical.add_edge(a, b);
    } else {
      pass.failed_pairs.emplace_back(a, b);
    }
  }
  return pass;
}

DiscoverySimulator::DiscoverySimulator(ExperimentConfig config) : config_(std::move(config)) {}

RunResult DiscoverySimulator::run_once(std::uint64_t seed) const {
  const Params& p = config_.params;
  RunResult result;

  JRSND_PERF_REGION("sim.run");
  // Monte-Carlo runs have no shared timeline; stamp this run's events with
  // the run index (thread-local, so parallel workers don't race the global
  // clock and a seed-ordered sort reproduces the serial trace byte for byte).
  const obs::ScopedSimTime run_time(
      seed >= config_.base_seed ? static_cast<double>(seed - config_.base_seed)
                                : static_cast<double>(seed));
  if (obs::tracing_enabled()) {
    obs::event_log().emit(obs::TraceEvent("run.begin")
                              .with("seed", seed)
                              .with("n", std::uint64_t{p.n})
                              .with("jammer", jammer_name(config_.jammer)));
  }
  // Phase regions (prof.sim.<phase>.*, inside sim.run): emplace() ends the
  // previous phase, recording its counters, before the next one starts.
  static thread_local obs::prof::RegionMetrics world_rm, dndp_rm, mndp_rm, rates_rm;
  std::optional<obs::prof::PerfRegion> phase;
  phase.emplace("sim.world", world_rm);
  World world(config_, seed);
  result.avg_degree = world.topology.average_degree();
  result.physical_pairs = world.topology.pairs().size();
  result.compromised_codes = world.compromise.compromised_code_count();

  phase.emplace("sim.dndp", dndp_rm);
  DndpPass pass = world.run_dndp();
  result.dndp_discovered = pass.discovered;
  result.dndp_retransmissions = pass.retransmissions;
  result.dndp_timeouts = pass.timeouts;

  phase.emplace("sim.mndp", mndp_rm);
  // Standalone M-NDP (the series the paper plots): over ALL physical pairs,
  // does a <= nu-hop logical path exist that avoids the pair's own direct
  // link? Evaluated on the pure D-NDP logical graph, as in Theorem 3 —
  // before closure rounds mutate it.
  std::size_t standalone = 0;
  for (const auto& [a, b] : world.topology.pairs()) {
    standalone += pass.logical.reachable_within(a, b, p.nu, /*exclude_direct=*/true);
  }

  // --- M-NDP ---------------------------------------------------------------
  if (config_.full_mndp) {
    MndpEngine mndp(p, world.active_phy(), world.topology, world.ibc.oracle(),
                    config_.gps_filter, seed);
    Rng round_rng = world.root.split();
    result.mndp_stats = mndp.run_round(std::span<NodeState>(world.nodes), round_rng);
    for (const auto& [a, b] : pass.failed_pairs) {
      const LogicalNeighbor* info = world.nodes[raw(a)].neighbor(b);
      if (info != nullptr && info->via_mndp && world.nodes[raw(b)].knows(a)) {
        ++result.mndp_recovered;
      }
    }
  } else {
    // Graph-level evaluation: the paper's pruned flood reaches exactly the
    // nodes within nu logical hops, and the final session-code handshake
    // always succeeds between physical neighbors (fresh secret code).
    std::vector<std::pair<NodeId, NodeId>> remaining = pass.failed_pairs;
    for (std::uint32_t round = 0; round < config_.mndp_rounds && !remaining.empty(); ++round) {
      std::vector<std::pair<NodeId, NodeId>> recovered_now;
      std::vector<std::pair<NodeId, NodeId>> still_failed;
      for (const auto& [a, b] : remaining) {
        if (pass.logical.reachable_within(a, b, p.nu)) {
          recovered_now.emplace_back(a, b);
        } else {
          still_failed.emplace_back(a, b);
        }
      }
      result.mndp_recovered += recovered_now.size();
      // Later rounds may ride links the earlier rounds established.
      for (const auto& [a, b] : recovered_now) pass.logical.add_edge(a, b);
      remaining = std::move(still_failed);
    }
  }

  // --- rates ----------------------------------------------------------------
  phase.emplace("sim.rates", rates_rm);
  if (result.physical_pairs > 0) {
    const auto pairs = static_cast<double>(result.physical_pairs);
    result.p_dndp = static_cast<double>(result.dndp_discovered) / pairs;
    result.p_mndp = static_cast<double>(standalone) / pairs;
    result.p_jrsnd =
        static_cast<double>(result.dndp_discovered + result.mndp_recovered) / pairs;
  }
  const std::size_t failed = result.physical_pairs - result.dndp_discovered;
  if (failed > 0) {
    result.p_mndp_conditional =
        static_cast<double>(result.mndp_recovered) / static_cast<double>(failed);
    result.p_mndp_defined = true;
  }

  // --- latency ---------------------------------------------------------------
  const LatencyModel latency(p);
  Rng latency_rng = world.root.split();
  Stat dndp_latency;
  const std::size_t samples = std::max<std::size_t>(result.dndp_discovered, 1);
  for (std::size_t i = 0; i < std::min<std::size_t>(samples, 1000); ++i) {
    dndp_latency.add(latency.sample_dndp(latency_rng).seconds());
  }
  result.latency_dndp_s = dndp_latency.mean();
  result.latency_mndp_s = latency.mndp(result.avg_degree, p.nu).seconds();
  result.latency_jrsnd_s =
      jrsnd_latency(result.latency_dndp_s, result.latency_mndp_s);
  if (world.faulty.has_value()) {
    const auto& t = world.faulty->totals();
    result.faults_injected = t.dropped + t.duplicated + t.reordered + t.corrupted +
                             t.truncated + t.crash_blocked;
  }
  phase.reset();  // record the rates phase before run.end is emitted

  if (obs::tracing_enabled()) {
    obs::event_log().emit(obs::TraceEvent("run.end")
                              .with("seed", seed)
                              .with("pairs", std::uint64_t{result.physical_pairs})
                              .with("dndp_discovered", std::uint64_t{result.dndp_discovered})
                              .with("mndp_recovered", std::uint64_t{result.mndp_recovered})
                              .with("p_dndp", result.p_dndp)
                              .with("p_jrsnd", result.p_jrsnd));
  }
  return result;
}

namespace {

void accumulate(PointResult& agg, const RunResult& r) {
  agg.p_dndp.add(r.p_dndp);
  agg.p_mndp.add(r.p_mndp);
  if (r.p_mndp_defined) agg.p_mndp_conditional.add(r.p_mndp_conditional);
  agg.p_jrsnd.add(r.p_jrsnd);
  agg.latency_dndp.add(r.latency_dndp_s);
  agg.latency_mndp.add(r.latency_mndp_s);
  agg.latency_jrsnd.add(r.latency_jrsnd_s);
  agg.degree.add(r.avg_degree);
  agg.compromised_codes.add(static_cast<double>(r.compromised_codes));
  agg.signature_verifications.add(static_cast<double>(r.mndp_stats.signature_verifications));
}

}  // namespace

PointResult DiscoverySimulator::run_all() const {
  const std::uint32_t runs = config_.params.runs;
  PointResult agg;

  // Seeds fan out across the pool (JRSND_THREADS=1 runs them inline, in
  // seed order). Each run is a fully deterministic function of its seed, so
  // only three things need care:
  //   * reduction order — results land in a seed-indexed vector and are
  //     folded in seed order below, so the Stats match at any thread count;
  //   * obs metrics — each worker records into its own scratch registry
  //     (thread-local override), absorbed into the process registry
  //     afterwards, so totals match at any thread count;
  //   * trace time — run_once stamps its own events with the run index via
  //     ScopedSimTime, so a seed-ordered sort (obs::normalize_trace) makes
  //     a parallel trace read the same as a one-thread one.
  const bool metrics = obs::metrics_enabled();
  std::vector<RunResult> results(runs);
  ThreadPool pool(std::min<std::size_t>(ThreadPool::default_thread_count(), runs));
  std::vector<std::unique_ptr<obs::MetricsRegistry>> scratch;
  if (metrics) {
    scratch.reserve(pool.size());
    for (std::size_t w = 0; w < pool.size(); ++w) {
      scratch.push_back(std::make_unique<obs::MetricsRegistry>());
    }
  }
  pool.parallel_for(runs, [&](std::size_t run, std::size_t worker) {
    const obs::ScopedMetricsRegistry guard(metrics ? scratch[worker].get() : nullptr);
    results[run] = run_once(config_.base_seed + run);
  });
  for (const auto& reg : scratch) obs::registry().absorb(reg->snapshot());
  for (const RunResult& r : results) accumulate(agg, r);
  return agg;
}

}  // namespace jrsnd::core
