// Fleet lifecycle: reinforcements join, radios get captured, the authority
// revokes — the long-game operational story around the discovery protocols.
//
//   1. A deployed unit discovers itself (D-NDP + M-NDP).
//   2. Reinforcements arrive: the authority hands them banked virtual-node
//      code sets (paper §V-A joins) and they integrate within one epoch.
//   3. Two radios are captured. The enemy starts jamming with the leaked
//      codes; discovery probability sags.
//   4. The authority broadcasts a signed revocation list for the leaked
//      codes. Honest nodes purge them — giving the jammer nothing to aim
//      at — and fall back on their remaining codes and M-NDP.
//
// Run:  ./fleet_lifecycle
#include <cstdio>

#include "jrsnd.hpp"

using namespace jrsnd;

namespace {

struct Fleet {
  core::Params params;
  predist::CodePoolAuthority authority;
  crypto::IbcAuthority ibc;
  sim::Field field;
  std::vector<sim::Position> positions;
  std::vector<core::NodeState> nodes;
  std::vector<predist::RevocationListener> listeners;
  Rng root{4242};

  Fleet()
      : params(make_params()),
        authority(params.predist(), Rng(1)),
        ibc(2),
        field(params.field_width, params.field_height) {
    Rng place = root.split();
    Rng node_rng = root.split();
    for (std::uint32_t i = 0; i < params.n; ++i) {
      positions.push_back({place.uniform_real(0, field.width()),
                           place.uniform_real(0, field.height())});
      add_node(node_id(i), authority.assignment().codes_of(node_id(i)), node_rng);
    }
  }

  static core::Params make_params() {
    core::Params p = core::Params::defaults();
    p.n = 60;
    p.m = 10;
    p.l = 8;
    p.nu = 3;
    p.field_width = 1200.0;
    p.field_height = 1200.0;
    return p;
  }

  void add_node(NodeId id, const std::vector<CodeId>& codes, Rng& node_rng) {
    nodes.emplace_back(id, ibc.issue(id), codes, authority, params.gamma, node_rng.split());
    listeners.emplace_back(ibc.oracle());
  }

  /// One discovery sweep (D-NDP everywhere + one M-NDP round); returns the
  /// fraction of physical pairs with live authenticated links.
  double sweep(const adversary::Jammer& jammer, Rng& rng) {
    const sim::Topology topology(field, positions, params.tx_range);
    core::AbstractPhy phy(topology, jammer, rng);
    core::DndpEngine dndp(params, phy);
    for (const auto& [a, b] : topology.pairs()) {
      if (!nodes[raw(a)].knows(b)) (void)dndp.run(nodes[raw(a)], nodes[raw(b)]);
    }
    core::MndpEngine mndp(params, phy, topology, ibc.oracle(), true);
    (void)mndp.run_round(std::span<core::NodeState>(nodes), rng);
    std::size_t linked = 0;
    for (const auto& [a, b] : topology.pairs()) {
      linked += nodes[raw(a)].knows(b) && nodes[raw(b)].knows(a);
    }
    return topology.pairs().empty()
               ? 1.0
               : static_cast<double>(linked) / static_cast<double>(topology.pairs().size());
  }
};

}  // namespace

int main() {
  Fleet fleet;
  Rng rng = fleet.root.split();
  const adversary::NullJammer quiet;

  std::printf("fleet lifecycle: %u nodes, m=%u, l=%u, pool=%u codes\n\n", fleet.params.n,
              fleet.params.m, fleet.params.l, fleet.params.pool_size());

  // --- 1. initial self-discovery ------------------------------------------
  std::printf("[1] initial discovery sweep: coverage %.1f%%\n",
              100.0 * fleet.sweep(quiet, rng));

  // --- 2. reinforcements join ----------------------------------------------
  Rng node_rng = fleet.root.split();
  Rng place = fleet.root.split();
  const std::uint32_t joiners = 6;
  for (std::uint32_t j = 0; j < joiners; ++j) {
    const NodeId id = node_id(fleet.params.n + j);
    const std::vector<CodeId> codes = fleet.authority.join(id);
    fleet.positions.push_back({place.uniform_real(0, fleet.field.width()),
                               place.uniform_real(0, fleet.field.height())});
    fleet.add_node(id, codes, node_rng);
  }
  fleet.params.n += joiners;
  std::printf("[2] %u reinforcements joined (banked code sets; max holders/code now %zu)\n",
              joiners, fleet.authority.assignment().max_holders());
  std::printf("    post-join sweep: coverage %.1f%%\n", 100.0 * fleet.sweep(quiet, rng));

  // --- 3. capture + jamming --------------------------------------------------
  Rng adv = fleet.root.split();
  const adversary::CompromiseModel compromise(fleet.authority.assignment(), 4, adv);
  const adversary::ReactiveJammer jammer(compromise,
                                         {fleet.params.z, fleet.params.mu});
  std::printf("[3] enemy captured 4 radios -> %zu codes leaked; jamming begins\n",
              compromise.compromised_code_count());
  // Links keyed by leaked codes are not retroactively broken (session codes
  // are fresh secrets), but NEW discovery on leaked codes is jammed. Start
  // a fresh unit-wide rediscovery to expose the damage:
  for (auto& node : fleet.nodes) node.remove_logical_neighbors_if([](NodeId) { return true; });
  std::printf("    rediscovery under jamming: coverage %.1f%%\n",
              100.0 * fleet.sweep(jammer, rng));

  // --- 4. authority-driven revocation ----------------------------------------
  predist::RevocationIssuer issuer(fleet.ibc.issue(predist::kAuthorityId));
  const predist::RevocationList list = issuer.issue(compromise.compromised_codes());
  std::size_t purged_total = 0;
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    std::size_t purged = 0;
    const auto outcome = fleet.listeners[i].apply(list, fleet.nodes[i].revocation(), &purged);
    if (outcome == predist::RevocationListener::Outcome::Applied) purged_total += purged;
  }
  std::printf("[4] authority broadcast revocation list #%llu (%zu codes); nodes purged %zu\n",
              static_cast<unsigned long long>(list.sequence), list.revoked.size(),
              purged_total);
  for (auto& node : fleet.nodes) node.remove_logical_neighbors_if([](NodeId) { return true; });
  std::printf("    rediscovery after revocation: coverage %.1f%%\n",
              100.0 * fleet.sweep(jammer, rng));
  std::printf("\nAfter revocation the jammer holds only dead codes: discovery runs on the\n"
              "surviving pool + M-NDP, and the DoS surface is gone with it.\n");
  return 0;
}
