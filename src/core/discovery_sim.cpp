#include "core/discovery_sim.hpp"

#include <atomic>
#include <memory>
#include <vector>

#include "adversary/compromise.hpp"
#include "adversary/jammer.hpp"
#include "common/thread_pool.hpp"
#include "core/abstract_phy.hpp"
#include "core/analysis.hpp"
#include "core/dndp.hpp"
#include "core/latency.hpp"
#include "fault/faulty_phy.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prof/perf_counters.hpp"
#include "sim/mobility.hpp"
#include "sim/topology.hpp"

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

DiscoverySimulator::DiscoverySimulator(ExperimentConfig config) : config_(std::move(config)) {}

RunResult DiscoverySimulator::run_once(std::uint64_t seed) const {
  const Params& p = config_.params;
  Rng root(seed);
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

  // --- world construction -------------------------------------------------
  predist::CodePoolAuthority authority(p.predist(), root.split());
  const predist::CodeAssignment& assignment = authority.assignment();

  const sim::Field field(p.field_width, p.field_height);
  Rng placement_rng = root.split();
  const sim::UniformPlacement placement(field, p.n, placement_rng);
  const sim::Topology topology(field, placement.snapshot(kSimStart), p.tx_range);
  result.avg_degree = topology.average_degree();
  result.physical_pairs = topology.pairs().size();

  Rng adversary_rng = root.split();
  const adversary::CompromiseModel compromise(assignment, p.q, adversary_rng);
  result.compromised_codes = compromise.compromised_code_count();

  const adversary::JammerParams jp{p.z, p.mu};
  std::unique_ptr<adversary::Jammer> jammer;
  switch (config_.jammer) {
    case JammerKind::None:
      jammer = std::make_unique<adversary::NullJammer>();
      break;
    case JammerKind::Random:
      jammer = std::make_unique<adversary::RandomJammer>(compromise, jp);
      break;
    case JammerKind::Reactive:
      jammer = std::make_unique<adversary::ReactiveJammer>(compromise, jp);
      break;
    case JammerKind::Intelligent:
      jammer = std::make_unique<adversary::IntelligentJammer>(compromise);
      break;
  }

  const crypto::IbcAuthority ibc(root.next());
  std::vector<NodeState> nodes;
  nodes.reserve(p.n);
  for (std::uint32_t i = 0; i < p.n; ++i) {
    const NodeId id = node_id(i);
    nodes.emplace_back(id, ibc.issue(id), assignment.codes_of(id), authority, p.gamma,
                       root.split());
  }

  // --- D-NDP over every physical-neighbor pair ----------------------------
  phase.emplace("sim.dndp", dndp_rm);
  Rng phy_rng = root.split();
  AbstractPhy phy(topology, *jammer, phy_rng);

  // Optional fault layer: wraps the PHY without perturbing the root Rng
  // chain (its draws come from the plan seed salted with the run seed), so
  // an absent or inactive plan leaves the run bit-identical.
  std::optional<fault::FaultyPhy> faulty;
  PhyModel* active_phy = &phy;
  const HandshakeClock* hs_clock = nullptr;
  if (config_.faults.has_value()) {
    faulty.emplace(phy, *config_.faults, seed);
    active_phy = &*faulty;
    hs_clock = &faulty->clocks();
  }

  DndpEngine dndp(p, *active_phy, config_.redundancy, seed, hs_clock);

  sim::LogicalGraph logical(p.n);
  std::vector<std::pair<NodeId, NodeId>> failed_pairs;
  Rng order_rng = root.split();
  for (const auto& [a, b] : topology.pairs()) {
    const bool a_first = order_rng.bernoulli(0.5);
    NodeState& initiator = nodes[raw(a_first ? a : b)];
    NodeState& responder = nodes[raw(a_first ? b : a)];
    const DndpResult r = dndp.run(initiator, responder);
    result.dndp_retransmissions += r.retransmissions;
    result.dndp_timeouts += r.timeouts;
    if (r.discovered) {
      ++result.dndp_discovered;
      logical.add_edge(a, b);
    } else {
      failed_pairs.emplace_back(a, b);
    }
  }

  phase.emplace("sim.mndp", mndp_rm);
  // Standalone M-NDP (the series the paper plots): over ALL physical pairs,
  // does a <= nu-hop logical path exist that avoids the pair's own direct
  // link? Evaluated on the pure D-NDP logical graph, as in Theorem 3 —
  // before closure rounds mutate it.
  std::size_t standalone = 0;
  for (const auto& [a, b] : topology.pairs()) {
    standalone += logical.reachable_within(a, b, p.nu, /*exclude_direct=*/true);
  }

  // --- M-NDP ---------------------------------------------------------------
  if (config_.full_mndp) {
    MndpEngine mndp(p, *active_phy, topology, ibc.oracle(), config_.gps_filter, seed);
    Rng round_rng = root.split();
    result.mndp_stats = mndp.run_round(std::span<NodeState>(nodes), round_rng);
    for (const auto& [a, b] : failed_pairs) {
      const LogicalNeighbor* info = nodes[raw(a)].neighbor(b);
      if (info != nullptr && info->via_mndp && nodes[raw(b)].knows(a)) {
        ++result.mndp_recovered;
      }
    }
  } else {
    // Graph-level evaluation: the paper's pruned flood reaches exactly the
    // nodes within nu logical hops, and the final session-code handshake
    // always succeeds between physical neighbors (fresh secret code).
    std::vector<std::pair<NodeId, NodeId>> remaining = failed_pairs;
    for (std::uint32_t round = 0; round < config_.mndp_rounds && !remaining.empty(); ++round) {
      std::vector<std::pair<NodeId, NodeId>> recovered_now;
      std::vector<std::pair<NodeId, NodeId>> still_failed;
      for (const auto& [a, b] : remaining) {
        if (logical.reachable_within(a, b, p.nu)) {
          recovered_now.emplace_back(a, b);
        } else {
          still_failed.emplace_back(a, b);
        }
      }
      result.mndp_recovered += recovered_now.size();
      // Later rounds may ride links the earlier rounds established.
      for (const auto& [a, b] : recovered_now) logical.add_edge(a, b);
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
  Rng latency_rng = root.split();
  Stat dndp_latency;
  const std::size_t samples = std::max<std::size_t>(result.dndp_discovered, 1);
  for (std::size_t i = 0; i < std::min<std::size_t>(samples, 1000); ++i) {
    dndp_latency.add(latency.sample_dndp(latency_rng).seconds());
  }
  result.latency_dndp_s = dndp_latency.mean();
  result.latency_mndp_s = latency.mndp(result.avg_degree, p.nu).seconds();
  result.latency_jrsnd_s =
      jrsnd_latency(result.latency_dndp_s, result.latency_mndp_s);
  if (faulty.has_value()) {
    const auto& t = faulty->totals();
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
}

}  // namespace

PointResult DiscoverySimulator::run_all() const {
  const std::uint32_t runs = config_.params.runs;
  const std::size_t threads = ThreadPool::default_thread_count();
  PointResult agg;

  // Sweep progress, published on the *process* registry so a live
  // MetricsExporter sees it even while workers record into scratch
  // registries (the thread-local override would otherwise swallow it).
  obs::Gauge* progress = nullptr;
  if (obs::metrics_enabled()) {
    obs::registry().gauge("sim.runs.total").set(static_cast<double>(runs));
    progress = &obs::registry().gauge("sim.runs.completed");
    progress->set(0.0);
  }

  // JRSND_THREADS=1 restores the historical fully-serial behavior.
  if (threads <= 1 || runs <= 1) {
    for (std::uint32_t run = 0; run < runs; ++run) {
      // Monte-Carlo runs have no shared timeline; publish the run index so
      // trace events still carry a monotone `t`.
      if (obs::tracing_enabled()) obs::event_log().set_sim_time(static_cast<double>(run));
      accumulate(agg, run_once(config_.base_seed + run));
      if (progress != nullptr) progress->set(static_cast<double>(run + 1));
    }
    return agg;
  }

  // Parallel path: seeds fan out across the pool. Each run is a fully
  // deterministic function of its seed, so only three things need care:
  //   * reduction order — results land in a seed-indexed vector and are
  //     folded serially below, making the Stats bit-identical to serial;
  //   * obs metrics — each worker records into its own scratch registry
  //     (thread-local override), merged and absorbed into the process
  //     registry afterwards so totals match the serial run;
  //   * trace time — run_once stamps its own events with the run index via
  //     ScopedSimTime, so a seed-ordered sort (obs::normalize_trace) makes
  //     the parallel trace byte-identical to the serial one.
  const bool metrics = obs::metrics_enabled();
  std::vector<RunResult> results(runs);
  ThreadPool pool(threads);
  std::vector<std::unique_ptr<obs::MetricsRegistry>> scratch;
  if (metrics) {
    scratch.reserve(pool.size());
    for (std::size_t w = 0; w < pool.size(); ++w) {
      scratch.push_back(std::make_unique<obs::MetricsRegistry>());
    }
  }
  std::atomic<std::uint32_t> completed{0};
  pool.parallel_for(runs, [&](std::size_t run, std::size_t worker) {
    const obs::ScopedMetricsRegistry guard(metrics ? scratch[worker].get() : nullptr);
    results[run] = run_once(config_.base_seed + run);
    const std::uint32_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
    if (progress != nullptr) progress->set(static_cast<double>(done));
  });
  if (metrics) {
    obs::MetricsSnapshot merged;
    for (const auto& reg : scratch) merged.merge(reg->snapshot());
    obs::registry().absorb(merged);
  }
  for (const RunResult& r : results) accumulate(agg, r);
  return agg;
}

}  // namespace jrsnd::core
