// The operational loop of a deployed JR-SND network (paper §IV-A, §V-B):
//
//   * in every interval of length T, each node initiates neighbor discovery
//     once, at a uniformly random instant of its own choosing;
//   * a node that hears nothing on a monitored session code for a threshold
//     time assumes the peer moved out of range and stops monitoring it
//     (the logical link expires);
//   * M-NDP initiations follow and patch the pairs D-NDP could not reach.
//
// The runner draws each epoch's initiation instants, runs them in time order
// against the epoch-start snapshot of a mobility model, and produces
// per-epoch reports: how much of the instantaneous physical neighborhood is
// covered by authenticated logical links, how many links expired, and what
// the protocols cost. examples/battlefield_patrol.cpp runs it over
// random-waypoint mobility.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "adversary/jammer.hpp"
#include "core/dndp.hpp"
#include "core/mndp.hpp"
#include "core/params.hpp"
#include "sim/mobility.hpp"

namespace jrsnd::core {

class PeriodicDiscoveryRunner {
 public:
  struct Config {
    Params params;
    Duration interval{30.0};      ///< the paper's discovery interval T
    Duration link_timeout{60.0};  ///< silence threshold before link expiry
    std::uint32_t epochs = 5;
    std::uint64_t seed = 1;
  };

  struct EpochReport {
    TimePoint at{};
    std::size_t physical_pairs = 0;
    std::size_t logical_pairs = 0;    ///< physical pairs with a live link
    std::size_t dndp_attempts = 0;
    std::size_t dndp_successes = 0;
    std::size_t links_expired = 0;
    MndpStats mndp;
    double coverage = 0.0;  ///< logical_pairs / physical_pairs
  };

  /// The mobility model must describe config.params.n nodes and outlive
  /// the runner.
  PeriodicDiscoveryRunner(Config config, const sim::MobilityModel& mobility);

  /// Runs config.epochs intervals and returns one report per epoch.
  /// Deterministic in config.seed.
  [[nodiscard]] std::vector<EpochReport> run();

 private:
  void expire_links(const sim::Topology& topology, TimePoint now, EpochReport& report);
  void record_contacts(const sim::Topology& topology, TimePoint now);

  Config config_;
  const sim::MobilityModel& mobility_;
  Rng root_;

  predist::CodePoolAuthority authority_;
  crypto::IbcAuthority ibc_;
  std::unique_ptr<adversary::CompromiseModel> compromise_;
  std::unique_ptr<adversary::Jammer> jammer_;
  std::vector<NodeState> nodes_;

  /// last time each live link's endpoints were physically adjacent,
  /// keyed by (min raw id << 32 | max raw id).
  std::unordered_map<std::uint64_t, TimePoint> last_contact_;
};

}  // namespace jrsnd::core
