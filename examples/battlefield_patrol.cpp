// Battlefield patrol: the workload the paper's introduction motivates.
//
// A company of nodes moves through a 2x2 km area under random-waypoint
// mobility while an omnipresent reactive jammer (fed by captured radios)
// tries to stop neighbor discovery. Every epoch (the paper's interval T)
// each node re-runs discovery against whoever is currently in range:
// D-NDP first, then M-NDP through already-discovered logical neighbors.
//
// The example prints, per epoch, how much of the physical neighborhood the
// protocol turned into authenticated logical links — and how stale links to
// departed neighbors are dropped.
//
// Run:  ./battlefield_patrol
#include <cstdio>
#include <unordered_set>

#include "adversary/compromise.hpp"
#include "adversary/jammer.hpp"
#include "core/abstract_phy.hpp"
#include "core/dndp.hpp"
#include "core/mndp.hpp"
#include "sim/mobility.hpp"
#include "sim/topology.hpp"

int main() {
  using namespace jrsnd;

  core::Params params = core::Params::defaults();
  params.n = 120;
  params.m = 12;
  params.l = 10;
  params.q = 8;
  params.nu = 3;  // one extra M-NDP hop buys back the jammed pairs
  params.field_width = 2000.0;
  params.field_height = 2000.0;

  std::printf("battlefield patrol: %u nodes, %u captured, RWP mobility, reactive jammer\n\n",
              params.n, params.q);

  Rng root(7);
  predist::CodePoolAuthority authority(params.predist(), root.split());
  const crypto::IbcAuthority ibc(11);
  const sim::Field field(params.field_width, params.field_height);
  Rng mob_rng = root.split();
  const sim::RandomWaypoint mobility(field, params.n, {2.0, 12.0, 5.0}, mob_rng);

  Rng adv = root.split();
  const adversary::CompromiseModel compromise(authority.assignment(), params.q, adv);
  const adversary::ReactiveJammer jammer(compromise, {params.z, params.mu});

  Rng node_rng = root.split();
  std::vector<core::NodeState> nodes =
      core::issue_nodes(authority, ibc, params.n, params.gamma, node_rng);

  Rng phy_rng = root.split();
  Rng order_rng = root.split();

  std::printf("%6s  %10s  %12s  %12s  %10s  %8s\n", "t(s)", "phys_pairs", "logical(D)",
              "logical(+M)", "coverage", "dropped");

  constexpr double kEpoch = 30.0;  // the paper's discovery interval T
  for (int epoch = 0; epoch < 8; ++epoch) {
    const TimePoint now{epoch * kEpoch};
    const sim::Topology topology(field, mobility.snapshot(now), params.tx_range);

    // Nodes stop monitoring session codes of departed neighbors (paper
    // §IV-A: no activity within a threshold -> assume the peer moved away).
    std::size_t dropped = 0;
    for (auto& node : nodes) {
      dropped += node.remove_logical_neighbors_if(
          [&](NodeId peer) { return !topology.are_neighbors(node.id(), peer); });
    }

    core::AbstractPhy phy(topology, jammer, phy_rng);
    core::DndpEngine dndp(params, phy);

    // D-NDP sweep over current physical pairs that are not yet logical.
    std::size_t dndp_links = 0;
    for (const auto& [a, b] : topology.pairs()) {
      if (nodes[raw(a)].knows(b)) {
        ++dndp_links;  // still linked from an earlier epoch
        continue;
      }
      if (dndp.run(nodes[raw(a)], nodes[raw(b)]).discovered) ++dndp_links;
    }

    // One M-NDP round fills the gaps through the logical graph.
    core::MndpEngine mndp(params, phy, topology, ibc.oracle(), /*gps_filter=*/true);
    (void)mndp.run_round(std::span<core::NodeState>(nodes), order_rng);

    std::size_t logical_total = 0;
    for (const auto& [a, b] : topology.pairs()) {
      logical_total += nodes[raw(a)].knows(b) && nodes[raw(b)].knows(a);
    }

    const double coverage = topology.pairs().empty()
                                ? 1.0
                                : static_cast<double>(logical_total) /
                                      static_cast<double>(topology.pairs().size());
    std::printf("%6.0f  %10zu  %12zu  %12zu  %9.1f%%  %8zu\n", now.seconds(),
                topology.pairs().size(), dndp_links, logical_total, 100.0 * coverage,
                dropped / 2);
  }

  std::printf("\nThe jammer knows every captured radio's codes, and this patrol is sparse\n"
              "(average degree ~8 vs the paper's ~23), yet D-NDP plus M-NDP rebuild\n"
              "most of each epoch's neighborhood; denser deployments (see\n"
              "bench/fig3_impact_of_l_n) push coverage toward 1.\n");
  return 0;
}
