#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string_view>
#include <thread>

#include "adversary/dos_attacker.hpp"
#include "core/abstract_phy.hpp"
#include "core/analysis.hpp"
#include "core/discovery_sim.hpp"
#include "core/mndp.hpp"
#include "crypto/verify_queue.hpp"
#include "dsss/prepared_codebook.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prof/perf_counters.hpp"
#include "world.hpp"

namespace e2e {

using namespace jrsnd;

namespace {

constexpr const char* kHigher = "higher";
constexpr const char* kLower = "lower";

/// What `jrsnd simulate --metrics --profile-out` switches on.
void set_telemetry(bool on) {
  obs::set_metrics_enabled(on);
  obs::prof::set_prof_enabled(on);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t counter(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::optional<double> per_call(double ns, std::uint64_t calls, double unit_ns) {
  if (calls == 0) return std::nullopt;
  return ns / static_cast<double>(calls) / unit_ns;
}

/// The layer each span's self time belongs to (the src/ module it times).
const std::map<std::string, std::string>& span_layers() {
  static const std::map<std::string, std::string> layers = {
      {"world.authority", "predist"},     {"world.placement+topology", "sim"},
      {"world.adversary", "adversary"},   {"world.nodes", "core"},
      {"crypto.issue", "crypto"},         {"predist.usable_codes", "predist"},
      {"dndp.pair", "core.dndp"},         {"phy.transmit", "core.phy"},
      {"crypto.shared_key", "crypto"},    {"crypto.auth_make", "crypto"},
      {"crypto.verify_auth", "crypto"},   {"crypto.session_code", "crypto"},
      {"mndp.graph", "mndp"},             {"mndp.round", "mndp"},
      {"crypto.flood.batch", "crypto"},   {"replay", "bench"},
  };
  return layers;
}

/// Everything the per-layer metrics are computed from. Fields a workload
/// has no stage for stay empty and their metrics print as unmeasured.
struct LayerInputs {
  const SpanLedger* ledger = nullptr;
  LedgerSummary summary;
  std::int64_t untraced_ns = 0;
  obs::MetricsSnapshot counters;  ///< engine counters and prof regions of the traced run
  std::uint64_t flight_records = 0;
  std::size_t threads = 1;
  bool identical = false;
  // D-NDP stage (Monte-Carlo and chip workloads).
  std::optional<DndpTally> dndp;
  std::uint64_t dndp_frames = 0;
  std::uint64_t dndp_delivered = 0;
  std::uint64_t subsessions = 0;
  // Chip-level PHY.
  bool chip = false;
  std::uint64_t struck_hellos = 0;
  std::uint64_t miscorrected_hellos = 0;
  // M-NDP stage (Monte-Carlo workloads).
  bool mndp = false;
  bool full_mndp = false;
  std::uint64_t reach_calls = 0;
  std::uint64_t sigver = 0;
  std::uint64_t recovered = 0;
  // Flood path.
  std::uint64_t flood_frames = 0;
};

void add_layer_metrics(const LayerInputs& in, MetricSet& out) {
  const LedgerSummary& s = in.summary;
  const double wall = static_cast<double>(s.wall_ns);
  const auto total = [&](const char* name) { return static_cast<double>(s[name].total_ns); };
  const auto self = [&](const char* name) { return static_cast<double>(s[name].self_ns); };
  const auto ms_of = [&](const char* name) -> std::optional<double> {
    if (s[name].count == 0) return std::nullopt;
    return total(name) / 1e6;
  };
  const auto count = [&](std::string_view name) {
    return static_cast<double>(counter(in.counters, name));
  };
  const auto prof_ns = [&](const std::string& region) {
    return count("prof." + region + ".task_clock_ns");
  };
  const auto share = [&](double ns) { return ratio(ns, wall); };
  const DndpTally* d = in.dndp ? &*in.dndp : nullptr;
  const bool flood = in.flood_frames > 0;

  // predist
  const double usable_ns = total("predist.usable_codes");
  out.add("predist.usable_codes_ns", "predist", "ns", kLower,
          d ? per_call(usable_ns, d->usable_code_calls, 1.0) : std::nullopt);
  out.add("predist.usable_codes_share", "predist", "ratio", kLower, share(usable_ns));
  out.add("predist.authority_ms", "predist", "ms", kLower, ms_of("world.authority"));

  // crypto, replayed on the discovery path (metric names follow the spans)
  struct Replay {
    const char* span;
    std::uint64_t calls;
  };
  const Replay replays[] = {
      {"crypto.verify_auth", d ? d->verify_calls : 0},
      {"crypto.auth_make", d ? d->make_calls : 0},
      {"crypto.shared_key", d ? d->shared_key_calls : 0},
      {"crypto.session_code", d ? d->session_code_calls : 0},
  };
  double replay_crypto_ns = 0.0;
  for (const Replay& r : replays) {
    replay_crypto_ns += total(r.span);
    out.add(std::string(r.span) + "_ns", "crypto", "ns", kLower,
            per_call(total(r.span), r.calls, 1.0));
    out.add(std::string(r.span) + ".calls", "crypto", "count", kLower,
            static_cast<double>(r.calls));
  }
  out.add("crypto.share", "crypto", "ratio", kLower,
          share(total("crypto.issue") + replay_crypto_ns + total("crypto.flood.batch")));
  out.add("crypto.issue_ms", "crypto", "ms", kLower, ms_of("crypto.issue"));

  // crypto, flood path
  const double verified = count("crypto.verify.frames");
  const double hits = count("crypto.verify.peer_cache.hits");
  const double misses = count("crypto.verify.peer_cache.misses");
  out.add("crypto.flood.ns_per_frame", "crypto", "ns", kLower,
          flood ? per_call(total("crypto.flood.batch"), in.flood_frames, 1.0) : std::nullopt);
  out.add("crypto.flood.mac_stage_ratio", "crypto", "ratio", kLower,
          flood ? ratio(count("crypto.reject.mac") + count("crypto.verify.accepted"), verified)
                : std::nullopt);
  out.add("crypto.flood.accept_ratio", "crypto", "ratio", kHigher,
          flood ? ratio(count("crypto.verify.accepted"), verified) : std::nullopt);
  out.add("crypto.flood.peer_cache_hit_ratio", "crypto", "ratio", kHigher,
          flood ? ratio(hits, hits + misses) : std::nullopt);

  // core.dndp
  const std::vector<double> pair_ns = durations(*in.ledger, "dndp.pair");
  const std::size_t pairs = pair_ns.size();
  out.add("dndp.pair_us_p50", "core.dndp", "us", kLower,
          pairs > 0 ? std::optional(percentile(pair_ns, 50.0) / 1e3) : std::nullopt, pairs);
  out.add("dndp.pair_us_p99", "core.dndp", "us", kLower,
          pairs > 0 ? std::optional(percentile(pair_ns, 99.0) / 1e3) : std::nullopt, pairs);
  out.add("dndp.subsessions_per_pair", "core.dndp", "count", kLower,
          d ? ratio(static_cast<double>(in.subsessions), static_cast<double>(d->pairs))
            : std::nullopt);
  out.add("dndp.discovered_ratio", "core.dndp", "ratio", kHigher,
          d ? ratio(static_cast<double>(d->discovered), static_cast<double>(d->pairs))
            : std::nullopt);
  out.add("dndp.self_share", "core.dndp", "ratio", kLower,
          share(self("dndp.pair") - usable_ns - replay_crypto_ns));

  // core.phy; on the chip PHY the dsss and ecc regions nest inside transmit
  const double scan_ns = prof_ns("dsss.sync.batch_scan");
  const double despread_ns = prof_ns("dsss.despread");
  const double rs_ns = prof_ns("ecc.rs.decode");
  const std::vector<double> tx_ns = durations(*in.ledger, "phy.transmit");
  out.add("phy.transmit_ns_p50", "core.phy", "ns", kLower,
          tx_ns.empty() ? std::nullopt : std::optional(percentile(tx_ns, 50.0)), tx_ns.size());
  out.add("phy.frames_per_pair", "core.phy", "count", kLower,
          d ? ratio(static_cast<double>(in.dndp_frames), static_cast<double>(d->pairs))
            : std::nullopt);
  out.add("phy.delivered_ratio", "core.phy", "ratio", kHigher,
          d ? ratio(static_cast<double>(in.dndp_delivered), static_cast<double>(in.dndp_frames))
            : std::nullopt);
  out.add("phy.share", "core.phy", "ratio", kLower,
          share(self("phy.transmit") - scan_ns - despread_ns - rs_ns));
  out.add("phy.chip.miscorrected_ratio", "core.phy", "ratio", kLower,
          in.chip ? ratio(static_cast<double>(in.miscorrected_hellos),
                          static_cast<double>(in.struck_hellos))
                  : std::nullopt);
  const bool perf = obs::prof::prof_backend() == obs::prof::ProfBackend::kPerfEvent;
  out.add("phy.chip.cycles_per_frame", "core.phy", "cycles", kLower,
          in.chip && perf ? ratio(count("prof.phy.transmit.cycles"),
                                  count("prof.phy.transmit.count"))
                          : std::nullopt);

  // dsss
  out.add("dsss.sync_scan_us", "dsss", "us", kLower,
          in.chip ? per_call(scan_ns,
                             static_cast<std::uint64_t>(count("prof.dsss.sync.batch_scan.count")),
                             1e3)
                  : std::nullopt);
  out.add("dsss.sync_scan_share", "dsss", "ratio", kLower, share(scan_ns));
  out.add("dsss.despread_share", "dsss", "ratio", kLower, share(despread_ns));
  out.add("dsss.scans_per_frame", "dsss", "count", kLower,
          in.chip ? ratio(count("dsss.sync.scans"), static_cast<double>(in.dndp_frames))
                  : std::nullopt);
  const double table_hits = count("dsss.prepared.tables.hits");
  out.add("dsss.prepared_hit_ratio", "dsss", "ratio", kHigher,
          in.chip ? ratio(table_hits, table_hits + count("dsss.prepared.tables.builds"))
                  : std::nullopt);

  // ecc
  out.add("ecc.rs_decode_us", "ecc", "us", kLower,
          in.chip ? per_call(rs_ns, static_cast<std::uint64_t>(count("prof.ecc.rs.decode.count")),
                             1e3)
                  : std::nullopt);
  out.add("ecc.rs_decode_share", "ecc", "ratio", kLower, share(rs_ns));
  out.add("ecc.clean_ratio", "ecc", "ratio", kHigher,
          in.chip ? ratio(count("ecc.rs.decode.clean"), count("ecc.rs.decode.calls"))
                  : std::nullopt);

  // mndp
  out.add("mndp.round_ms", "mndp", "ms", kLower,
          in.mndp ? std::optional((total("mndp.graph") + total("mndp.round")) / 1e6)
                  : std::nullopt);
  out.add("mndp.share", "mndp", "ratio", kLower, share(self("mndp.graph") + self("mndp.round")));
  out.add("mndp.sigver_per_run", "mndp", "count", kLower,
          in.mndp ? std::optional(static_cast<double>(in.sigver)) : std::nullopt);
  out.add("mndp.us_per_sigver", "mndp", "us", kLower,
          in.full_mndp ? per_call(total("mndp.round"), in.sigver, 1e3) : std::nullopt);
  out.add("mndp.recovered_ratio", "mndp", "ratio", kHigher,
          in.mndp && d ? ratio(static_cast<double>(in.recovered),
                               static_cast<double>(d->failed.size()))
                       : std::nullopt);

  // sim
  out.add("sim.world_ms", "sim", "ms", kLower, ms_of("world.placement+topology"));
  out.add("sim.reachable_ns", "sim", "ns", kLower,
          in.mndp ? per_call(total("mndp.graph"), in.reach_calls, 1.0) : std::nullopt);
  out.add("sim.share", "sim", "ratio", kLower, share(total("world.placement+topology")));

  // obs, common, and the ledger itself
  out.add("obs.trace_overhead_pct", "obs", "%", kLower,
          ratio(100.0 * (wall - static_cast<double>(in.untraced_ns)),
                static_cast<double>(in.untraced_ns)));
  out.add("obs.flight_records_per_run", "obs", "count", kLower,
          static_cast<double>(in.flight_records));
  out.add("common.pool.threads", "common", "count", kHigher, static_cast<double>(in.threads));
  out.add("layers.coverage", "ledger", "ratio", kHigher,
          share(static_cast<double>(s.covered_ns)));
  out.add("layers.identical", "ledger", "bool", kHigher, in.identical ? 1.0 : 0.0);
}

/// Closes a traced pass: per-layer metrics from the ledger and the registry,
/// then the trace file.
void finish_traced(const std::string& workload, std::uint64_t seed, const std::string& path,
                   const SpanLedger& ledger, std::int64_t start_ns, std::int64_t run_ns,
                   LayerInputs& in, PassResult& out) {
  in.ledger = &ledger;
  in.summary = summarize(ledger, run_ns);
  in.counters = obs::registry().snapshot();
  in.threads = out.threads;
  add_layer_metrics(in, out.metrics);
  out.checks.expect(write_trace(path, workload, seed, ledger, start_ns, in.summary,
                                in.untraced_ns, span_layers()),
                    "cannot write the trace file");
}

/// The engine's own counters must equal what the benchmark counted and
/// replayed around it.
void expect_engine_counts(const DndpTally& tally, std::uint64_t subsessions, Checks& checks) {
  const auto engine = [](const char* name) { return obs::registry().counter(name).value(); };
  checks.expect(engine("dndp.runs") == tally.pairs, "dndp.runs != pairs traced");
  checks.expect(engine("dndp.subsessions.started") == subsessions,
                "dndp.subsessions.started != sub-sessions the PHY saw begin");
  checks.expect(engine("dndp.subsessions.completed") == tally.session_code_calls,
                "dndp.subsessions.completed != replayed session-code derivations");
  checks.expect(engine("crypto.verify.frames") == tally.verify_calls,
                "crypto.verify.frames != replayed verify_auth calls");
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_stat(const core::Stat& a, const core::Stat& b) {
  return a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
         same_bits(a.variance(), b.variance()) && same_bits(a.min(), b.min()) &&
         same_bits(a.max(), b.max());
}

bool same_point(const core::PointResult& a, const core::PointResult& b) {
  return same_stat(a.p_dndp, b.p_dndp) && same_stat(a.p_mndp, b.p_mndp) &&
         same_stat(a.p_mndp_conditional, b.p_mndp_conditional) &&
         same_stat(a.p_jrsnd, b.p_jrsnd) && same_stat(a.latency_dndp, b.latency_dndp) &&
         same_stat(a.latency_mndp, b.latency_mndp) &&
         same_stat(a.latency_jrsnd, b.latency_jrsnd) && same_stat(a.degree, b.degree) &&
         same_stat(a.compromised_codes, b.compromised_codes);
}

// --- Monte-Carlo workloads: fig2_random, fig2_telemetry, mndp_full ----------

class MonteCarlo final : public Workload {
 public:
  MonteCarlo(std::string name, core::ExperimentConfig cfg, bool telemetry, double band_slack)
      : name_(std::move(name)),
        cfg_(std::move(cfg)),
        telemetry_(telemetry),
        band_(core::theorem1(cfg_.params)),
        band_slack_(band_slack) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads_ = std::clamp<std::size_t>(hw, 1, 4);
    // run_all sizes its pool from JRSND_THREADS.
    setenv("JRSND_THREADS", std::to_string(threads_).c_str(), 1);
  }

  void setup(Checks& checks) override {
    set_telemetry(telemetry_);
    sim_.emplace(cfg_);
    rep(checks);
  }

  void rep(Checks& checks) override { check(sim_->run_all(), checks); }

  void rep_metrics(const std::vector<double>& rep_s, MetricSet& out) override {
    std::vector<double> runs;
    std::vector<double> pairs;
    for (const double s : rep_s) {
      runs.push_back(static_cast<double>(cfg_.params.runs) / s);
      pairs.push_back(pairs_per_rep_ / s);
    }
    out.add_reps("runs_per_s", "runs/s", kHigher, runs);
    out.add_reps("pairs_per_s", "pairs/s", kHigher, pairs);
  }

  void traced(const std::string& path, PassResult& out) override;

  [[nodiscard]] std::size_t threads() const override { return threads_; }

 private:
  /// Every run's P_dndp must lie in the Theorem-1 band [P-, P+] widened by
  /// 5 binomial sigma over the run's pairs (the smallest run's pair count,
  /// i.e. the widest sigma, from the degree extremes) plus the config's model
  /// slack, and every rep must reproduce the first rep's PointResult bit for
  /// bit. 5 sigma, not 3: the random jammer sits exactly on P+, so a 3-sigma
  /// band fails about one honest run in a thousand.
  void check(const core::PointResult& r, Checks& checks) {
    const double pairs_min = r.degree.min() * static_cast<double>(cfg_.params.n) / 2.0;
    const auto sigma = [&](double p) { return std::sqrt(p * (1.0 - p) / pairs_min); };
    const bool low_ok =
        r.p_dndp.min() >= band_.p_lower - 5.0 * sigma(band_.p_lower) - band_slack_;
    const bool high_ok =
        r.p_dndp.max() <= band_.p_upper + 5.0 * sigma(band_.p_upper) + band_slack_;
    checks.tally(cfg_.params.runs, std::uint64_t{!low_ok} + std::uint64_t{!high_ok},
                 "a run's P_dndp lies outside the Theorem-1 band");
    if (!reference_) {
      reference_ = r;
      pairs_per_rep_ = std::round(r.degree.mean() * static_cast<double>(r.degree.count()) *
                                  static_cast<double>(cfg_.params.n) / 2.0);
      checks.expect(r.p_dndp.count() == cfg_.params.runs && pairs_per_rep_ > 0.0,
                    "run_all returned fewer runs than configured");
    } else {
      checks.expect(same_point(r, *reference_), "PointResult differs from the first rep's");
    }
  }

  std::string name_;
  core::ExperimentConfig cfg_;
  bool telemetry_;
  core::Theorem1Result band_;
  double band_slack_;
  std::size_t threads_ = 1;
  std::optional<core::DiscoverySimulator> sim_;
  std::optional<core::PointResult> reference_;
  double pairs_per_rep_ = 0.0;
};

void MonteCarlo::traced(const std::string& path, PassResult& out) {
  const core::Params& p = cfg_.params;
  const std::uint64_t seed = cfg_.base_seed;
  Checks& checks = out.checks;
  LayerInputs in;
  in.mndp = true;
  in.full_mndp = cfg_.full_mndp;

  // The untraced serial wall, under the workload's own telemetry setting. The
  // first run only warms caches and the allocator, as the traced run is warm.
  set_telemetry(telemetry_);
  const core::DiscoverySimulator sim(cfg_);
  (void)sim.run_once(seed);
  const std::uint64_t flights = obs::flight_records_pushed();
  const std::int64_t t0 = now_ns();
  const core::RunResult ref = sim.run_once(seed);
  in.untraced_ns = now_ns() - t0;
  in.flight_records = obs::flight_records_pushed() - flights;
  out.serial_runs_per_s = 1e9 / static_cast<double>(in.untraced_ns);

  // The same world rebuilt from the public constructors, with spans at every
  // layer boundary and counters and profiling regions on.
  obs::registry().reset();
  set_telemetry(true);
  SpanLedger ledger;
  const std::int64_t start = now_ns();
  World world(p, cfg_.jammer, seed, &ledger);
  Rng root = world.root;
  Rng phy_rng = root.split();
  core::AbstractPhy abstract_phy(*world.topology, *world.jammer, phy_rng);
  LedgerPhy phy(abstract_phy, ledger);
  core::DndpEngine engine(p, phy, cfg_.redundancy, seed);
  sim::LogicalGraph logical(p.n);
  Rng order_rng = root.split();
  in.dndp = traced_dndp(world, phy, engine, order_rng, &logical, ledger, checks);
  const DndpTally& tally = *in.dndp;
  in.dndp_frames = phy.frames;
  in.dndp_delivered = phy.delivered;
  in.subsessions = phy.subsessions;
  expect_engine_counts(tally, phy.subsessions, checks);

  std::uint64_t standalone = 0;
  {
    ScopedSpan span(&ledger, "mndp.graph");
    for (const auto& [a, b] : world.topology->pairs()) {
      standalone += std::uint64_t{logical.reachable_within(a, b, p.nu, /*exclude_direct=*/true)};
    }
    in.reach_calls = world.topology->pair_count();
    if (!cfg_.full_mndp) {
      std::vector<std::pair<NodeId, NodeId>> remaining = tally.failed;
      for (std::uint32_t round = 0; round < cfg_.mndp_rounds && !remaining.empty(); ++round) {
        std::vector<std::pair<NodeId, NodeId>> recovered_now;
        std::vector<std::pair<NodeId, NodeId>> still_failed;
        in.reach_calls += remaining.size();
        for (const auto& [a, b] : remaining) {
          (logical.reachable_within(a, b, p.nu) ? recovered_now : still_failed).emplace_back(a, b);
        }
        in.recovered += recovered_now.size();
        for (const auto& [a, b] : recovered_now) logical.add_edge(a, b);
        remaining = std::move(still_failed);
      }
    }
  }
  if (cfg_.full_mndp) {
    ScopedSpan span(&ledger, "mndp.round");
    core::MndpEngine mndp(p, phy, *world.topology, world.ibc->oracle(), cfg_.gps_filter, seed);
    Rng round_rng = root.split();
    in.sigver = mndp.run_round(std::span<core::NodeState>(world.nodes), round_rng)
                    .signature_verifications;
    for (const auto& [a, b] : tally.failed) {
      const core::LogicalNeighbor* info = world.nodes[raw(a)].neighbor(b);
      if (info != nullptr && info->via_mndp && world.nodes[raw(b)].knows(a)) ++in.recovered;
    }
  }
  const std::int64_t run_ns = now_ns() - start;
  set_telemetry(false);

  const auto pairs = static_cast<double>(ref.physical_pairs);
  in.identical = tally.pairs == ref.physical_pairs && tally.discovered == ref.dndp_discovered &&
                 standalone == static_cast<std::uint64_t>(std::llround(ref.p_mndp * pairs)) &&
                 in.recovered == ref.mndp_recovered;
  checks.expect(in.identical, "the rebuilt world does not reproduce run_once");
  finish_traced(name_, seed, path, ledger, start, run_ns, in, out);
}

/// Run r of a Monte-Carlo rep uses world seed 1000*seed + r, so distinct
/// --seed values never share a world.
std::uint64_t base_seed(std::uint64_t seed) { return seed * 1000; }

core::ExperimentConfig fig2_config(std::uint64_t seed, bool smoke) {
  core::ExperimentConfig cfg;
  cfg.params = core::Params::defaults();  // n=2000, m=100, l=40, q=20
  if (smoke) cfg.params.n = 300;
  cfg.params.runs = 8;
  cfg.jammer = core::JammerKind::Random;
  cfg.base_seed = base_seed(seed);
  cfg.mndp_rounds = 1;
  return cfg;
}

core::ExperimentConfig mndp_config(std::uint64_t seed, bool smoke) {
  // bench/analysis_vs_sim's validation point: the full M-NDP engine. Smoke
  // halves n and the field area, keeping the node density and q/n.
  core::ExperimentConfig cfg;
  cfg.params = core::Params::defaults();
  cfg.params.n = smoke ? 200 : 400;
  cfg.params.q = smoke ? 8 : 15;
  cfg.params.field_width = smoke ? 1414.0 : 2000.0;
  cfg.params.field_height = cfg.params.field_width;
  cfg.params.runs = 4;
  cfg.jammer = core::JammerKind::Reactive;
  cfg.full_mndp = true;
  cfg.base_seed = base_seed(seed);
  cfg.mndp_rounds = 1;
  return cfg;
}

// --- chip_dndp ---------------------------------------------------------------

using NodeCodes = std::vector<std::vector<dsss::SpreadCode>>;

/// Each node's usable pool codes as chip patterns, the receiver codebook the
/// ChipPhy scans HELLOs with.
NodeCodes node_codes(const World& world) {
  NodeCodes codes(world.nodes.size());
  for (std::size_t i = 0; i < world.nodes.size(); ++i) {
    for (const CodeId c : world.nodes[i].usable_codes()) {
      codes[i].push_back(world.authority->code(c));
    }
  }
  return codes;
}

core::ChipPhy::Codebook codebook(dsss::NodeCodebookCache& cache, const NodeCodes& codes) {
  return [&cache, &codes](NodeId node) -> const dsss::PreparedCodebook& {
    return cache.prepare(node, codes[raw(node)]);
  };
}

/// D-NDP over every pair of a chip world (nodes fresh, `root` positioned
/// after them). With `frame_ns`, each transmit's duration is recorded.
/// Returns the number of pairs discovered; checks both ends' session codes.
std::uint64_t chip_pairs(World& world, Rng root, std::uint64_t seed,
                         dsss::NodeCodebookCache& cache, const NodeCodes& codes,
                         std::vector<double>* frame_ns, Checks& checks) {
  Rng phy_rng = root.split();
  core::ChipPhy chip(world.params, *world.topology, *world.jammer, codebook(cache, codes),
                     phy_rng);
  std::optional<TimedPhy> timed;
  core::PhyModel* phy = &chip;
  if (frame_ns != nullptr) phy = &timed.emplace(chip, *frame_ns);
  core::DndpEngine engine(world.params, *phy, /*redundancy=*/true, seed);
  Rng order_rng = root.split();
  std::uint64_t discovered = 0;
  std::uint64_t mismatched = 0;
  for (const auto& [a, b] : world.topology->pairs()) {
    const bool a_first = order_rng.bernoulli(0.5);
    core::NodeState& initiator = world.nodes[raw(a_first ? a : b)];
    core::NodeState& responder = world.nodes[raw(a_first ? b : a)];
    if (!engine.run(initiator, responder).discovered) continue;
    ++discovered;
    const core::LogicalNeighbor* at_a = initiator.neighbor(responder.id());
    const core::LogicalNeighbor* at_b = responder.neighbor(initiator.id());
    if (at_a == nullptr || at_b == nullptr || at_a->session_code != at_b->session_code) {
      ++mismatched;
    }
  }
  checks.tally(discovered, mismatched, "a discovered pair holds different session codes");
  return discovered;
}

core::Params chip_params(bool smoke) {
  core::Params p = core::Params::defaults();
  p.n = smoke ? 12 : 30;
  p.m = 40;
  p.l = 10;
  p.q = 3;
  p.N = 512;
  p.field_width = 100.0;  // every node within tx_range of every other
  p.field_height = 100.0;
  p.tx_range = 300.0;
  return p;
}

class ChipDndp final : public Workload {
 public:
  ChipDndp(std::uint64_t seed, bool smoke) : seed_(seed), params_(chip_params(smoke)) {}

  void setup(Checks& checks) override {
    set_telemetry(false);
    world_ = std::make_unique<World>(params_, core::JammerKind::Reactive, seed_, nullptr);
    codes_ = node_codes(*world_);
    cache_ = std::make_unique<dsss::NodeCodebookCache>();
    rep(checks);  // warm-up: builds every node's prepared codebook
  }

  void rep(Checks& checks) override {
    frame_ns_.clear();
    const std::uint64_t discovered =
        chip_pairs(*world_, world_->reset_nodes(), seed_, *cache_, codes_, &frame_ns_, checks);
    if (!reference_) {
      reference_ = discovered;
    } else {
      checks.expect(discovered == *reference_, "discovered pairs differ from the first rep's");
    }
    frame_p50_us_.push_back(percentile(frame_ns_, 50.0) / 1e3);
    frame_p99_us_.push_back(percentile(frame_ns_, 99.0) / 1e3);
  }

  void rep_metrics(const std::vector<double>& rep_s, MetricSet& out) override {
    const auto pairs = static_cast<double>(world_->topology->pair_count());
    std::vector<double> runs;
    std::vector<double> pairs_s;
    for (const double s : rep_s) {
      runs.push_back(1.0 / s);
      pairs_s.push_back(pairs / s);
    }
    out.add_reps("runs_per_s", "runs/s", kHigher, runs);
    out.add_reps("pairs_per_s", "pairs/s", kHigher, pairs_s);
    // Per-rep percentiles over ~10k frames each; the warm-up reps are not timed.
    const auto timed = static_cast<std::ptrdiff_t>(rep_s.size());
    out.add_reps("frame_us_p50", "us", kLower,
                 std::vector<double>(frame_p50_us_.end() - timed, frame_p50_us_.end()));
    out.add_reps("frame_us_p99", "us", kLower,
                 std::vector<double>(frame_p99_us_.end() - timed, frame_p99_us_.end()));
  }

  void traced(const std::string& path, PassResult& out) override {
    Checks& checks = out.checks;
    LayerInputs in;
    in.chip = true;

    // The untraced serial wall; the first world only warms caches and the
    // allocator, as the traced world is warm.
    set_telemetry(false);
    const auto untraced_world = [&] {
      World world(params_, core::JammerKind::Reactive, seed_, nullptr);
      const NodeCodes codes = node_codes(world);
      dsss::NodeCodebookCache cache;
      return chip_pairs(world, world.root, seed_, cache, codes, nullptr, checks);
    };
    (void)untraced_world();
    const std::uint64_t flights = obs::flight_records_pushed();
    const std::int64_t t0 = now_ns();
    const std::uint64_t discovered = untraced_world();
    in.untraced_ns = now_ns() - t0;
    in.flight_records = obs::flight_records_pushed() - flights;
    out.serial_runs_per_s = 1e9 / static_cast<double>(in.untraced_ns);

    obs::registry().reset();
    set_telemetry(true);
    SpanLedger ledger;
    const std::int64_t start = now_ns();
    World world(params_, core::JammerKind::Reactive, seed_, &ledger);
    const NodeCodes codes = node_codes(world);
    dsss::NodeCodebookCache cache;
    Rng root = world.root;
    Rng phy_rng = root.split();
    core::ChipPhy chip(world.params, *world.topology, *world.jammer, codebook(cache, codes),
                       phy_rng);
    LedgerPhy phy(chip, ledger, &chip);
    core::DndpEngine engine(world.params, phy, /*redundancy=*/true, seed_);
    Rng order_rng = root.split();
    in.dndp = traced_dndp(world, phy, engine, order_rng, nullptr, ledger, checks);
    const std::int64_t run_ns = now_ns() - start;
    set_telemetry(false);

    in.dndp_frames = phy.frames;
    in.dndp_delivered = phy.delivered;
    in.subsessions = phy.subsessions;
    in.struck_hellos = phy.struck_hellos;
    in.miscorrected_hellos = phy.miscorrected_hellos;
    expect_engine_counts(*in.dndp, phy.subsessions, checks);
    in.identical = in.dndp->discovered == discovered &&
                   in.dndp->pairs == world.topology->pair_count();
    checks.expect(in.identical, "the traced chip world does not reproduce the untraced one");
    finish_traced("chip_dndp", seed_, path, ledger, start, run_ns, in, out);
  }

 private:
  std::uint64_t seed_;
  core::Params params_;
  std::unique_ptr<World> world_;
  NodeCodes codes_;
  std::unique_ptr<dsss::NodeCodebookCache> cache_;
  std::optional<std::uint64_t> reference_;
  std::vector<double> frame_ns_;
  std::vector<double> frame_p50_us_;
  std::vector<double> frame_p99_us_;
};

// --- auth_flood ---------------------------------------------------------------

constexpr std::size_t kFloodBatch = 1024;  ///< frames per push/drain cycle
constexpr std::uint32_t kFloodRatio = 10;  ///< attacker frames per honest frame
constexpr std::uint32_t kFloodPeers = 16;

class AuthFlood final : public Workload {
 public:
  AuthFlood(std::uint64_t seed, bool smoke) : seed_(seed), batches_(smoke ? 300 : 3000) {}

  void setup(Checks& checks) override {
    set_telemetry(false);
    source_.emplace(wire_, seed_, kFloodPeers, seed_ ^ 0x9E3779B97F4A7C15ULL);
    frames_ = source_->make_batch(kFloodBatch, kFloodRatio);
    queue_.emplace(source_->verify_wire());
    queue_->reserve(kFloodBatch);
    results_.reserve(kFloodBatch);
    rep(checks);  // warm-up: fills the peer cache
  }

  void rep(Checks& checks) override { honest_accepted_ = flood(nullptr, checks); }

  void rep_metrics(const std::vector<double>& rep_s, MetricSet& out) override {
    const auto frames = static_cast<double>(batches_ * kFloodBatch);
    std::vector<double> runs;
    std::vector<double> frames_s;
    std::vector<double> goodput;
    for (const double s : rep_s) {
      runs.push_back(1.0 / s);
      frames_s.push_back(frames / s);
      goodput.push_back(static_cast<double>(honest_accepted_) / s);
    }
    out.add_reps("runs_per_s", "runs/s", kHigher, runs);
    out.add_reps("auth_frames_per_s", "frames/s", kHigher, frames_s);
    out.add_reps("auth_goodput_hps", "frames/s", kHigher, goodput);
  }

  void traced(const std::string& path, PassResult& out) override {
    Checks& checks = out.checks;
    LayerInputs in;
    setup(checks);
    const std::uint64_t flights = obs::flight_records_pushed();
    const std::int64_t t0 = now_ns();
    const std::uint64_t untraced_accepted = flood(nullptr, checks);
    in.untraced_ns = now_ns() - t0;
    in.flight_records = obs::flight_records_pushed() - flights;
    out.serial_runs_per_s = 1e9 / static_cast<double>(in.untraced_ns);

    obs::registry().reset();
    set_telemetry(true);
    SpanLedger ledger;
    const std::int64_t start = now_ns();
    const std::uint64_t traced_accepted = flood(&ledger, checks);
    const std::int64_t run_ns = now_ns() - start;
    set_telemetry(false);

    in.flood_frames = batches_ * kFloodBatch;
    in.identical = traced_accepted == untraced_accepted;
    checks.expect(in.identical, "traced flood verdicts differ from the untraced run's");
    finish_traced("auth_flood", seed_, path, ledger, start, run_ns, in, out);
  }

 private:
  /// Pushes and drains the flood `batches_` times; every verdict must stop at
  /// the frame's expected stage. Returns the honest frames accepted.
  std::uint64_t flood(SpanLedger* ledger, Checks& checks) {
    std::uint64_t wrong = 0;
    std::uint64_t accepted = 0;
    for (std::size_t b = 0; b < batches_; ++b) {
      {
        ScopedSpan span(ledger, "crypto.flood.batch", b + 1);
        for (const adversary::FloodFrame& f : frames_) {
          queue_->push(f.bits, f.frame_code, source_->expected_code());
        }
        queue_->drain(source_->key_source(), results_);
      }
      for (std::size_t i = 0; i < frames_.size(); ++i) {
        wrong += std::uint64_t{results_[i].stage != frames_[i].expected_stage};
        accepted += std::uint64_t{frames_[i].kind == adversary::FloodFrameKind::Honest &&
                                  results_[i].stage == crypto::VerifyStage::Accept};
      }
    }
    checks.tally(batches_ * kFloodBatch, wrong,
                 "a flood verdict differs from FloodFrame::expected_stage");
    return accepted;
  }

  std::uint64_t seed_;
  std::size_t batches_;
  core::WireConfig wire_;  // the paper's Table-I widths
  std::optional<adversary::HandshakeFloodSource> source_;
  std::vector<adversary::FloodFrame> frames_;
  std::optional<crypto::VerifyQueue> queue_;
  std::vector<crypto::VerifyResult> results_;
  std::uint64_t honest_accepted_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig2_random", "fig2_telemetry", "mndp_full",
                                                 "chip_dndp", "auth_flood"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool smoke) {
  if (name == "fig2_random") {
    return std::make_unique<MonteCarlo>(name, fig2_config(seed, smoke), false, 0.0);
  }
  if (name == "fig2_telemetry") {
    return std::make_unique<MonteCarlo>(name, fig2_config(seed, smoke), true, 0.0);
  }
  if (name == "mndp_full") {
    // Theorem 1 assumes independent code compromise; in a 400-node world
    // the compromised codes are correlated and the reactive floor measures
    // 0.80-0.83 against P- = 0.861. The slack keeps the check on the engine,
    // not on that model gap.
    return std::make_unique<MonteCarlo>(name, mndp_config(seed, smoke), false, 0.08);
  }
  if (name == "chip_dndp") return std::make_unique<ChipDndp>(seed, smoke);
  if (name == "auth_flood") return std::make_unique<AuthFlood>(seed, smoke);
  return nullptr;
}

PassResult run_timed(Workload& workload, const Options& options) {
  PassResult out;
  out.threads = workload.threads();
  // Set-up runs several times so setup_s is a median, not one cold sample.
  const std::size_t setups = options.smoke ? 1 : 3;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < setups; ++i) {
    const std::int64_t t0 = now_ns();
    workload.setup(out.checks);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::size_t reps = options.smoke ? 2 : options.reps;
  const std::size_t min_reps = options.smoke ? 2 : 3;
  std::vector<double> rep_s;
  const std::int64_t begin = now_ns();
  while (true) {
    const double elapsed = static_cast<double>(now_ns() - begin) / 1e9;
    if (options.seconds > 0.0 ? (rep_s.size() >= min_reps && elapsed >= options.seconds)
                              : rep_s.size() >= reps) {
      break;
    }
    const std::int64_t t0 = now_ns();
    workload.rep(out.checks);
    rep_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  workload.rep_metrics(rep_s, out.metrics);
  out.metrics.add_median("setup_s", "s", kLower, setup_s);
  out.metrics.add("peak_rss_mb", "e2e", "MB", kLower, peak_rss_mb());
  return out;
}

}  // namespace e2e
