// Battlefield patrol: the workload the paper's introduction motivates.
//
// A company of nodes moves through a 2x2 km area under random-waypoint
// mobility while an omnipresent reactive jammer (fed by captured radios)
// tries to stop neighbor discovery. Every epoch (the paper's interval T)
// each node re-runs discovery against whoever is currently in range:
// D-NDP at a random instant of the interval, then M-NDP through
// already-discovered logical neighbors. A link whose peer has been silent
// past the threshold expires (paper §IV-A).
//
// core::PeriodicDiscoveryRunner runs that loop; the example prints, per
// epoch, how much of the physical neighborhood it turned into
// authenticated logical links, and how many stale links it dropped.
//
// Run:  ./battlefield_patrol
#include <cstdio>

#include "core/periodic_discovery.hpp"
#include "sim/field.hpp"
#include "sim/mobility.hpp"

int main() {
  using namespace jrsnd;

  core::PeriodicDiscoveryRunner::Config cfg;
  cfg.params = core::Params::defaults();
  cfg.params.n = 120;
  cfg.params.m = 12;
  cfg.params.l = 10;
  cfg.params.q = 8;
  cfg.params.nu = 3;  // one extra M-NDP hop buys back the jammed pairs
  cfg.params.field_width = 2000.0;
  cfg.params.field_height = 2000.0;
  cfg.interval = seconds(30.0);  // the paper's discovery interval T
  cfg.epochs = 8;
  cfg.seed = 7;

  std::printf("battlefield patrol: %u nodes, %u captured, RWP mobility, reactive jammer\n\n",
              cfg.params.n, cfg.params.q);

  const sim::Field field(cfg.params.field_width, cfg.params.field_height);
  Rng mobility_rng(11);
  const sim::RandomWaypoint mobility(field, cfg.params.n, {2.0, 12.0, 5.0}, mobility_rng);
  core::PeriodicDiscoveryRunner runner(cfg, mobility);

  std::printf("%6s  %10s  %10s  %10s  %10s  %10s  %8s\n", "t(s)", "phys_pairs", "dndp_tried",
              "dndp_found", "mndp_found", "coverage", "expired");
  for (const auto& r : runner.run()) {
    std::printf("%6.0f  %10zu  %10zu  %10zu  %10zu  %9.1f%%  %8zu\n", r.at.seconds(),
                r.physical_pairs, r.dndp_attempts, r.dndp_successes,
                static_cast<std::size_t>(r.mndp.discoveries), 100.0 * r.coverage,
                r.links_expired);
  }

  std::printf("\nThe jammer knows every captured radio's codes, and this patrol is sparse\n"
              "(average degree ~8 vs the paper's ~23), yet D-NDP plus M-NDP rebuild\n"
              "most of each epoch's neighborhood; denser deployments (see\n"
              "bench/fig3_impact_of_l_n) push coverage toward 1.\n");
  return 0;
}
