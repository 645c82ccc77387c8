// The network-scale discovery experiment (paper §VI-B).
//
// One run = one seeded world: 2000 nodes placed uniformly in the 5000x5000 m
// field, spread codes pre-distributed, q nodes compromised, a jammer armed,
// and the real D-NDP engine executed over every physical-neighbor pair.
// M-NDP is then evaluated either
//   * by bounded-depth reachability on the logical graph D-NDP built —
//     provably the outcome of the paper's pruned flood for honest nodes
//     (the fast path used for the 2000-node figures), or
//   * by the full MndpEngine with its signature chains (validation mode,
//     used by tests and bench/analysis_vs_sim on smaller networks).
//
// Figures report averages over `params.runs` seeds; every run is exactly
// reproducible from (base_seed + run index). `World` is that seeded world as
// an object, so tests and tools can run D-NDP over it and read its nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "adversary/compromise.hpp"
#include "adversary/jammer.hpp"
#include "core/abstract_phy.hpp"
#include "core/jrsnd_node.hpp"
#include "core/metrics.hpp"
#include "core/mndp.hpp"
#include "core/params.hpp"
#include "crypto/ibc.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_phy.hpp"
#include "predist/authority.hpp"
#include "sim/topology.hpp"

namespace jrsnd::core {

enum class JammerKind { None, Random, Reactive, Intelligent };

[[nodiscard]] const char* jammer_name(JammerKind kind) noexcept;

struct ExperimentConfig {
  Params params;
  std::uint64_t base_seed = 1;
  JammerKind jammer = JammerKind::Reactive;  ///< paper shows reactive (worst case)
  bool redundancy = true;      ///< D-NDP x-fold sub-session redundancy
  bool full_mndp = false;      ///< run the complete M-NDP engine (slower)
  bool gps_filter = false;     ///< M-NDP false-positive suppression
  std::uint32_t mndp_rounds = 1;  ///< logical-graph closure iterations
  /// When set, every run wraps its PHY in a FaultyPhy applying this plan
  /// (salted with the run seed, so faults decorrelate across runs but stay
  /// exactly reproducible). Unset — the historical fault-free pipeline.
  std::optional<fault::FaultPlan> faults;
};

/// What World::run_dndp leaves besides the nodes' neighbor tables.
struct DndpPass {
  explicit DndpPass(std::size_t node_count) : logical(node_count) {}

  sim::LogicalGraph logical;  ///< one edge per discovered pair
  std::vector<std::pair<NodeId, NodeId>> failed_pairs;  ///< in topology pair order
  std::size_t discovered = 0;
  std::uint64_t retransmissions = 0;  ///< retries the hardened D-NDP spent
  std::uint64_t timeouts = 0;         ///< attempt timeouts that expired
};

/// One seed's world, built in the one Rng-split order every run reproduces:
/// authority, placement, compromise, the IBC master (`root.next()`), one
/// split per node, the PHY. run_dndp then splits the pair-order Rng, and
/// run_once goes on splitting `root` for the M-NDP round and latency.
///
/// The PHY keeps `phy_rng` and the jammer keeps `compromise` by reference,
/// so a World is neither copyable nor movable.
class World {
 public:
  World(const ExperimentConfig& cfg, std::uint64_t run_seed);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// D-NDP over every physical-neighbor pair, in topology order, with a
  /// coin flip per pair choosing the initiator. Call it once per world.
  [[nodiscard]] DndpPass run_dndp();

  /// The FaultyPhy when the config carries a fault plan, else `phy`.
  [[nodiscard]] PhyModel& active_phy() noexcept;

  const ExperimentConfig config;
  const std::uint64_t seed;
  Rng root;
  predist::CodePoolAuthority authority;
  sim::Topology topology;
  adversary::CompromiseModel compromise;
  std::unique_ptr<adversary::Jammer> jammer;
  crypto::IbcAuthority ibc;
  std::vector<NodeState> nodes;
  Rng phy_rng;
  AbstractPhy phy;
  /// Wraps `phy` when the config has a fault plan. Its draws come from the
  /// plan seed salted with the run seed, not from `root`, so an absent or
  /// inactive plan leaves the run bit-identical.
  std::optional<fault::FaultyPhy> faulty;
};

struct RunResult {
  std::size_t physical_pairs = 0;
  std::size_t dndp_discovered = 0;
  std::size_t mndp_recovered = 0;  ///< D-NDP-failed pairs recovered by M-NDP
  std::size_t compromised_codes = 0;
  double avg_degree = 0.0;

  double p_dndp = 0.0;   ///< dndp_discovered / physical_pairs
  /// Standalone M-NDP success: fraction of ALL physical pairs connected by
  /// a <= nu-hop logical path that does not use their own direct link —
  /// the quantity the paper plots as M-NDP's P-hat (monotone in m).
  double p_mndp = 0.0;
  /// Conditional recovery: mndp_recovered / (physical_pairs - dndp_discovered).
  double p_mndp_conditional = 0.0;
  bool p_mndp_defined = false;  ///< false when D-NDP left no failed pairs
  double p_jrsnd = 0.0;  ///< (dndp + mndp) / physical_pairs

  double latency_dndp_s = 0.0;   ///< mean sampled D-NDP latency
  double latency_mndp_s = 0.0;   ///< Theorem 4 at the configured nu
  double latency_jrsnd_s = 0.0;  ///< max of the two (paper §VI-A3)

  MndpStats mndp_stats;  ///< populated in full_mndp mode

  std::uint64_t dndp_retransmissions = 0;  ///< retries the hardened D-NDP spent
  std::uint64_t dndp_timeouts = 0;         ///< attempt timeouts that expired
  std::uint64_t faults_injected = 0;       ///< total faults the plan landed
};

struct PointResult {
  Stat p_dndp;
  Stat p_mndp;              ///< standalone (the paper's plotted series)
  Stat p_mndp_conditional;  ///< recovery rate over D-NDP-failed pairs
  Stat p_jrsnd;
  Stat latency_dndp;
  Stat latency_mndp;
  Stat latency_jrsnd;
  Stat degree;
  Stat compromised_codes;
  Stat signature_verifications;  ///< M-NDP's, per run (0 unless full_mndp)
};

class DiscoverySimulator {
 public:
  explicit DiscoverySimulator(ExperimentConfig config);

  /// One seeded world; fully deterministic in `seed`.
  [[nodiscard]] RunResult run_once(std::uint64_t seed) const;

  /// config.params.runs seeded runs, aggregated.
  [[nodiscard]] PointResult run_all() const;

  [[nodiscard]] const ExperimentConfig& config() const noexcept { return config_; }

 private:
  ExperimentConfig config_;
};

}  // namespace jrsnd::core
