// Golden pin for the D-NDP discovery pipeline: `run_once(seed)` on a Fig.
// 2-shaped world (the m = 40 point of the Fig. 2 sweep, l = 40, q = 20;
// n = 300 on a 2 km field keeps the paper's node density) must keep
// producing exactly these numbers. Any change to the engine's crypto
// plumbing — key schedules, frame caching, verification routing — has to
// leave every seeded outcome, and every discovered pair's session code,
// bit-identical.
//
// run_once does not expose the nodes, so the session-code digest comes from
// a mirror of its world composition (same Rng split order, same PHY stack,
// same pair order); the mirror is checked against run_once before its digest
// is trusted.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>

#include "jrsnd.hpp"

namespace jrsnd::core {
namespace {

ExperimentConfig golden_config(JammerKind jammer) {
  ExperimentConfig cfg;
  cfg.params = Params::defaults();  // l = 40, q = 20
  cfg.params.n = 300;
  cfg.params.m = 40;
  cfg.params.field_width = 2000.0;
  cfg.params.field_height = 2000.0;
  cfg.params.runs = 1;
  cfg.base_seed = 11;
  cfg.jammer = jammer;
  return cfg;
}

/// Retries on, and a fault plan that corrupts (and drops) delivered frames.
ExperimentConfig golden_fault_config() {
  ExperimentConfig cfg = golden_config(JammerKind::Reactive);
  cfg.params.retry.max_retx = 1;
  fault::FaultPlan plan;
  plan.seed = 23;
  plan.corrupt = 0.1;
  plan.drop = 0.1;
  cfg.faults = plan;
  return cfg;
}

std::unique_ptr<adversary::Jammer> make_jammer(JammerKind kind,
                                               const adversary::CompromiseModel& compromise,
                                               const Params& p) {
  const adversary::JammerParams jp{p.z, p.mu};
  switch (kind) {
    case JammerKind::None: return std::make_unique<adversary::NullJammer>();
    case JammerKind::Random: return std::make_unique<adversary::RandomJammer>(compromise, jp);
    case JammerKind::Reactive:
      return std::make_unique<adversary::ReactiveJammer>(compromise, jp);
    case JammerKind::Intelligent:
      return std::make_unique<adversary::IntelligentJammer>(compromise);
  }
  return std::make_unique<adversary::NullJammer>();
}

struct MirrorResult {
  std::size_t physical_pairs = 0;
  std::size_t dndp_discovered = 0;
  std::uint64_t dndp_retransmissions = 0;
  std::uint64_t session_code_digest = 0;
  bool ends_agree = true;  ///< both ends of every discovered pair hold one code
};

/// FNV-1a over 64-bit words.
void fold(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
}

/// DiscoverySimulator::run_once up to the end of D-NDP, keeping the nodes.
MirrorResult mirror_dndp(const ExperimentConfig& cfg, std::uint64_t seed) {
  const Params& p = cfg.params;
  Rng root(seed);
  predist::CodePoolAuthority authority(p.predist(), root.split());
  const sim::Field field(p.field_width, p.field_height);
  Rng placement_rng = root.split();
  const sim::UniformPlacement placement(field, p.n, placement_rng);
  const sim::Topology topology(field, placement.snapshot(kSimStart), p.tx_range);
  Rng adversary_rng = root.split();
  const adversary::CompromiseModel compromise(authority.assignment(), p.q, adversary_rng);
  const std::unique_ptr<adversary::Jammer> jammer = make_jammer(cfg.jammer, compromise, p);

  const crypto::IbcAuthority ibc(root.next());
  std::vector<NodeState> nodes;
  nodes.reserve(p.n);
  for (std::uint32_t i = 0; i < p.n; ++i) {
    const NodeId id = node_id(i);
    nodes.emplace_back(id, ibc.issue(id), authority.assignment().codes_of(id), authority,
                       p.gamma, root.split());
  }

  Rng phy_rng = root.split();
  AbstractPhy phy(topology, *jammer, phy_rng);
  std::optional<fault::FaultyPhy> faulty;
  PhyModel* active_phy = &phy;
  const HandshakeClock* hs_clock = nullptr;
  if (cfg.faults.has_value()) {
    faulty.emplace(phy, *cfg.faults, seed);
    active_phy = &*faulty;
    hs_clock = &faulty->clocks();
  }
  DndpEngine dndp(p, *active_phy, cfg.redundancy, seed, hs_clock);

  MirrorResult out;
  out.physical_pairs = topology.pairs().size();
  out.session_code_digest = 0xCBF29CE484222325ULL;
  Rng order_rng = root.split();
  for (const auto& [a, b] : topology.pairs()) {
    const bool a_first = order_rng.bernoulli(0.5);
    NodeState& initiator = nodes[raw(a_first ? a : b)];
    NodeState& responder = nodes[raw(a_first ? b : a)];
    const DndpResult r = dndp.run(initiator, responder);
    out.dndp_retransmissions += r.retransmissions;
    if (!r.discovered) continue;
    ++out.dndp_discovered;
    const LogicalNeighbor* at_a = initiator.neighbor(responder.id());
    const LogicalNeighbor* at_b = responder.neighbor(initiator.id());
    if (at_a == nullptr || at_b == nullptr || at_a->session_code != at_b->session_code) {
      out.ends_agree = false;
      continue;
    }
    fold(out.session_code_digest, (std::uint64_t{raw(a)} << 32) | raw(b));
    for (const std::uint64_t word : at_a->session_code.words()) {
      fold(out.session_code_digest, word);
    }
  }
  return out;
}

struct Golden {
  std::size_t physical_pairs;
  std::size_t dndp_discovered;
  std::size_t mndp_recovered;
  std::uint64_t dndp_retransmissions;
  std::uint64_t session_code_digest;
};

void expect_golden(const ExperimentConfig& cfg, const Golden& want) {
  const DiscoverySimulator sim(cfg);
  const RunResult r = sim.run_once(cfg.base_seed);
  EXPECT_EQ(r.physical_pairs, want.physical_pairs);
  EXPECT_EQ(r.dndp_discovered, want.dndp_discovered);
  EXPECT_EQ(r.mndp_recovered, want.mndp_recovered);
  EXPECT_EQ(r.dndp_retransmissions, want.dndp_retransmissions);

  const MirrorResult m = mirror_dndp(cfg, cfg.base_seed);
  ASSERT_EQ(m.physical_pairs, r.physical_pairs) << "the mirror does not rebuild run_once's world";
  ASSERT_EQ(m.dndp_discovered, r.dndp_discovered) << "the mirror does not replay run_once";
  ASSERT_EQ(m.dndp_retransmissions, r.dndp_retransmissions);
  EXPECT_TRUE(m.ends_agree);
  EXPECT_EQ(m.session_code_digest, want.session_code_digest);
}

TEST(GoldenDiscovery, NoJammer) {
  expect_golden(golden_config(JammerKind::None),
                Golden{2678, 2658, 20, 0, 16055757944469119541ULL});
}

TEST(GoldenDiscovery, RandomJammer) {
  expect_golden(golden_config(JammerKind::Random),
                Golden{2678, 2629, 49, 0, 15426695930675951495ULL});
}

TEST(GoldenDiscovery, ReactiveJammer) {
  expect_golden(golden_config(JammerKind::Reactive),
                Golden{2678, 765, 793, 0, 16992564554063955821ULL});
}

TEST(GoldenDiscovery, IntelligentJammer) {
  expect_golden(golden_config(JammerKind::Intelligent),
                Golden{2678, 765, 793, 0, 16992564554063955821ULL});
}

TEST(GoldenDiscovery, RetriesUnderCorruptingFaults) {
  const ExperimentConfig cfg = golden_fault_config();
  expect_golden(cfg, Golden{2678, 565, 658, 12544, 17359269335288634295ULL});
}

}  // namespace
}  // namespace jrsnd::core
