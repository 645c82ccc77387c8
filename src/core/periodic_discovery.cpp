#include "core/periodic_discovery.hpp"

#include <algorithm>

#include "core/abstract_phy.hpp"
#include "obs/event_log.hpp"
#include "obs/span.hpp"
#include "sim/topology.hpp"

namespace jrsnd::core {

namespace {

// The periodic loop runs M-NDP with the GPS filter on: a responder its
// position check places out of range sends no response (see MndpEngine).
constexpr bool kGpsFilter = true;

std::uint64_t pair_key(NodeId a, NodeId b) {
  const std::uint64_t lo = std::min(raw(a), raw(b));
  const std::uint64_t hi = std::max(raw(a), raw(b));
  return (lo << 32) | hi;
}

}  // namespace

PeriodicDiscoveryRunner::PeriodicDiscoveryRunner(Config config,
                                                 const sim::MobilityModel& mobility)
    : config_(std::move(config)),
      mobility_(mobility),
      root_(config_.seed),
      authority_(config_.params.predist(), root_.split()),
      ibc_(root_.next()) {
  Rng adv = root_.split();
  compromise_ = std::make_unique<adversary::CompromiseModel>(authority_.assignment(),
                                                             config_.params.q, adv);
  jammer_ = std::make_unique<adversary::ReactiveJammer>(
      *compromise_, adversary::JammerParams{config_.params.z, config_.params.mu});

  Rng node_rng = root_.split();
  nodes_ = issue_nodes(authority_, ibc_, config_.params.n, config_.params.gamma, node_rng);
}

void PeriodicDiscoveryRunner::record_contacts(const sim::Topology& topology, TimePoint now) {
  // Runs after the epoch's discovery, so a link made this epoch is stamped
  // with it: links form only over in-range delivery, so their endpoints are
  // adjacent here. A one-sided link (an M-NDP confirm lost) is stamped too.
  for (const auto& [a, b] : topology.pairs()) {
    if (nodes_[raw(a)].knows(b) || nodes_[raw(b)].knows(a)) {
      last_contact_[pair_key(a, b)] = now;
    }
  }
}

void PeriodicDiscoveryRunner::expire_links(const sim::Topology& topology, TimePoint now,
                                           EpochReport& report) {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const NodeId a = node_id(i);
    report.links_expired += nodes_[i].remove_logical_neighbors_if([&](NodeId b) {
      if (raw(b) <= i) return false;  // handle each pair once
      if (topology.are_neighbors(a, b)) return false;  // still in contact
      // record_contacts stamped every link in the epoch that made it.
      const TimePoint last = last_contact_.at(pair_key(a, b));
      // Strictly greater: a link whose silence equals the threshold exactly
      // is still live this tick, so a same-tick rediscovery cannot count the
      // pair as both expired and discovered in one epoch report.
      if (now - last <= config_.link_timeout) return false;
      nodes_[raw(b)].remove_logical_neighbor(a);
      last_contact_.erase(pair_key(a, b));
      return true;
    });
  }
}

std::vector<PeriodicDiscoveryRunner::EpochReport> PeriodicDiscoveryRunner::run() {
  std::vector<EpochReport> reports;
  const sim::Field field(config_.params.field_width, config_.params.field_height);
  Rng schedule_rng = root_.split();
  Rng phy_rng = root_.split();

  // One epoch's initiations: each node's D-NDP and M-NDP instants.
  struct Initiation {
    TimePoint at;
    std::uint32_t node;
    bool mndp;
  };
  std::vector<Initiation> schedule;
  schedule.reserve(2 * nodes_.size());

  for (std::uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const TimePoint start{static_cast<double>(epoch) * config_.interval.seconds()};
    const sim::Topology topology(field, mobility_.snapshot(start), config_.params.tx_range);

    // Epoch span: a detached (trace-0) structural span so stage tables show
    // per-epoch timing without the epoch itself counting as an attempt. All
    // of the epoch's trace events stamp the epoch start time.
    const obs::ScopedSimTime epoch_time(start.seconds());
    obs::Span epoch_span("periodic.epoch");
    epoch_span.with_u64("epoch", epoch);

    EpochReport report;
    report.at = start;
    report.physical_pairs = topology.pairs().size();

    expire_links(topology, start, report);

    AbstractPhy phy(topology, *jammer_, phy_rng);
    DndpEngine dndp(config_.params, phy, /*redundancy=*/true, config_.seed + epoch);
    MndpEngine mndp(config_.params, phy, topology, ibc_.oracle(), kGpsFilter,
                    config_.seed + epoch);

    // Each node initiates D-NDP once, at a random instant of the interval
    // (paper §V-B); M-NDP initiations ride the interval's fresh links, so
    // they are drawn from its final fifth. The stable sort keeps draw order
    // among equal instants.
    const double T = config_.interval.seconds();
    schedule.clear();
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      schedule.push_back({start + Duration(schedule_rng.uniform_real(0.0, 0.8 * T)), i, false});
      schedule.push_back({start + Duration(schedule_rng.uniform_real(0.8 * T, T)), i, true});
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Initiation& x, const Initiation& y) { return x.at < y.at; });

    for (const Initiation& init : schedule) {
      NodeState& initiator = nodes_[init.node];
      if (!init.mndp) {
        for (const NodeId peer : topology.neighbors(initiator.id())) {
          if (initiator.knows(peer)) continue;
          ++report.dndp_attempts;
          if (dndp.run(initiator, nodes_[raw(peer)]).discovered) ++report.dndp_successes;
        }
        continue;
      }
      const MndpStats stats = mndp.initiate(initiator, std::span<NodeState>(nodes_));
      report.mndp.requests_sent += stats.requests_sent;
      report.mndp.responses_sent += stats.responses_sent;
      report.mndp.signature_verifications += stats.signature_verifications;
      report.mndp.signatures_created += stats.signatures_created;
      report.mndp.requests_dropped += stats.requests_dropped;
      report.mndp.discoveries += stats.discoveries;
      report.mndp.false_positive_responses += stats.false_positive_responses;
      report.mndp.max_hops_seen = std::max(report.mndp.max_hops_seen, stats.max_hops_seen);
      report.mndp.retransmissions += stats.retransmissions;
      report.mndp.timeouts += stats.timeouts;
    }
    record_contacts(topology, start);

    for (const auto& [a, b] : topology.pairs()) {
      report.logical_pairs += nodes_[raw(a)].knows(b) && nodes_[raw(b)].knows(a);
    }
    report.coverage = report.physical_pairs == 0
                          ? 1.0
                          : static_cast<double>(report.logical_pairs) /
                                static_cast<double>(report.physical_pairs);
    epoch_span.with_u64("pairs", report.physical_pairs);
    epoch_span.set_dur(config_.interval.seconds());
    reports.push_back(report);
  }
  return reports;
}

}  // namespace jrsnd::core
