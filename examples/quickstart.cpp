// Quickstart: the smallest end-to-end JR-SND deployment.
//
//   1. The MANET authority generates the secret spread-code pool and
//      pre-distributes m codes to each node (paper §V-A).
//   2. Two nodes in radio range run the D-NDP four-message handshake over
//      a jammed channel (paper §V-B).
//   3. On success both hold the same authenticated pairwise key and a fresh
//      secret session spread code for subsequent anti-jamming traffic.
//
// Run:  ./quickstart   (exits 1 if a discovered pair's two ends hold
//                       different session codes or the channel loses the
//                       message)
#include <cstdio>
#include <string>

#include "adversary/compromise.hpp"
#include "adversary/jammer.hpp"
#include "common/hex.hpp"
#include "core/abstract_phy.hpp"
#include "core/analysis.hpp"
#include "core/dndp.hpp"
#include "core/secure_channel.hpp"
#include "sim/topology.hpp"

int main() {
  using namespace jrsnd;

  // A small unit: 30 nodes, each preloaded with m = 10 codes, every code
  // held by at most l = 6 nodes.
  core::Params params = core::Params::defaults();
  params.n = 30;
  params.m = 10;
  params.l = 6;
  params.q = 3;  // the enemy captured three radios

  std::printf("JR-SND quickstart\n");
  std::printf("  pool size s = %u codes, %u per node, <= %u holders each\n",
              params.pool_size(), params.m, params.l);

  // --- authority-side setup (before deployment) -------------------------
  Rng root(2011);
  predist::CodePoolAuthority authority(params.predist(), root.split());
  const crypto::IbcAuthority ibc(42);

  // --- the field ----------------------------------------------------------
  const sim::Field field(1000.0, 1000.0);
  std::vector<sim::Position> positions;
  Rng place = root.split();
  for (std::uint32_t i = 0; i < params.n; ++i) {
    positions.push_back({place.uniform_real(0, 1000), place.uniform_real(0, 1000)});
  }
  // Put nodes 0 and 1 next to each other so the demo pair is in range.
  positions[0] = {500.0, 500.0};
  positions[1] = {550.0, 500.0};
  const sim::Topology topology(field, positions, params.tx_range);

  Rng node_rng = root.split();
  std::vector<core::NodeState> nodes =
      core::issue_nodes(authority, ibc, params.n, params.gamma, node_rng);

  // --- the adversary --------------------------------------------------------
  Rng adv = root.split();
  const adversary::CompromiseModel compromise(authority.assignment(), params.q, adv);
  const adversary::ReactiveJammer jammer(compromise, {params.z, params.mu});
  std::printf("  adversary captured %u nodes -> knows %zu of %u pool codes\n", params.q,
              compromise.compromised_code_count(), params.pool_size());

  // --- D-NDP between nodes 0 and 1 ------------------------------------------
  const auto shared = authority.assignment().shared_codes(node_id(0), node_id(1));
  std::printf("  nodes 0 and 1 share %zu pool code(s)\n", shared.size());
  if (shared.empty()) {
    std::printf("  (no shared codes this seed — they would fall back to M-NDP)\n");
    return 0;
  }

  Rng phy_rng = root.split();
  core::AbstractPhy phy(topology, jammer, phy_rng);
  core::DndpEngine engine(params, phy);
  const core::DndpResult result = engine.run(nodes[0], nodes[1]);

  std::printf("  D-NDP: %u HELLO copies delivered, %u sub-session(s) completed\n",
              result.hellos_delivered, result.subsessions_completed);
  if (!result.discovered) {
    std::printf("  discovery failed (all shared codes compromised and jammed)\n");
    return 0;
  }

  const core::LogicalNeighbor* link = nodes[0].neighbor(node_id(1));
  std::printf("  discovered & mutually authenticated via pool code C_%u\n",
              raw(*result.winning_code));
  std::printf("  session spread code (first 64 of %zu chips): %s...\n",
              link->session_code.size(),
              link->session_code.slice(0, 64).to_string().c_str());
  const bool agree = link->session_code == nodes[1].neighbor(node_id(0))->session_code;
  std::printf("  both sides agree: %s\n", agree ? "yes" : "NO (bug!)");

  // The payoff: authenticated, encrypted, anti-jamming application traffic
  // over the fresh session code.
  core::SecureChannel channel(nodes[0], nodes[1], phy);
  const std::string message = "rendezvous at grid 47";
  const auto reply = channel.send_text(node_id(0), message);
  std::printf("  secure channel: %s\n",
              reply.has_value() ? ("peer decrypted \"" + *reply + "\"").c_str()
                                : "message lost");

  // What the analysis predicts for this configuration:
  const core::Theorem1Result t1 = core::theorem1(params);
  std::printf("  Theorem 1 bounds for this config: %.3f <= P_dndp <= %.3f\n", t1.p_lower,
              t1.p_upper);
  return agree && reply == message ? 0 : 1;
}
