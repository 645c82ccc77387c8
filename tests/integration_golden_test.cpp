// Golden pins for the discovery pipeline. GoldenDiscovery: the D-NDP
// pipeline: `run_once(seed)` on a Fig.
// 2-shaped world (the m = 40 point of the Fig. 2 sweep, l = 40, q = 20;
// n = 300 on a 2 km field keeps the paper's node density) must keep
// producing exactly these numbers. Any change to the engine's crypto
// plumbing — key schedules, frame caching, verification routing — has to
// leave every seeded outcome, and every discovered pair's session code,
// bit-identical.
//
// The session-code digest comes from a `World` built from the same config
// and seed: the object run_once itself builds and runs D-NDP over, so the
// nodes it reads are the ones run_once discovered with. The pass is checked
// against run_once's counts before its digest is trusted.
//
// GoldenMndp: the full M-NDP engine (every signature in every chain created
// and verified) on the same world at nu = 2 and nu = 3, and under retries
// plus corrupting faults. Every MndpStats field is pinned, so a faster
// engine must still do exactly the paper's verification work; the wire
// bytes of a signed 3-hop request and response are pinned too.
//
// GoldenChip: D-NDP over the chip-accurate ChipPhy, and one ChipChannel
// superposition, pinned chip for chip and Rng draw for draw.
//
// GoldenPeriodic: the operational loop, PeriodicDiscoveryRunner, over
// random-waypoint mobility (the battlefield_patrol configuration) and over a
// static placement. Every EpochReport field of every epoch is pinned, so the
// order in which the epoch's D-NDP and M-NDP initiations run must not change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

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

/// FNV-1a over 64-bit words.
void fold(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
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

  // run_once's world, rebuilt from the same seed and kept: digest every
  // discovered pair's session code, in topology pair order.
  World world(cfg, cfg.base_seed);
  const DndpPass pass = world.run_dndp();
  ASSERT_EQ(pass.discovered, r.dndp_discovered);
  ASSERT_EQ(pass.retransmissions, r.dndp_retransmissions);
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const auto& [a, b] : world.topology.pairs()) {
    if (!pass.logical.has_edge(a, b)) continue;
    const LogicalNeighbor* at_a = world.nodes[raw(a)].neighbor(b);
    const LogicalNeighbor* at_b = world.nodes[raw(b)].neighbor(a);
    ASSERT_NE(at_a, nullptr);
    ASSERT_NE(at_b, nullptr);
    ASSERT_EQ(at_a->session_code, at_b->session_code) << "the two ends hold different codes";
    fold(digest, (std::uint64_t{raw(a)} << 32) | raw(b));
    for (const std::uint64_t word : at_a->session_code.words()) fold(digest, word);
  }
  EXPECT_EQ(digest, want.session_code_digest);
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

// --- GoldenMndp ----------------------------------------------------------------

ExperimentConfig golden_mndp_config(std::uint32_t nu) {
  ExperimentConfig cfg = golden_config(JammerKind::Reactive);
  cfg.full_mndp = true;
  cfg.params.nu = nu;
  return cfg;
}

struct GoldenMndpRun {
  std::size_t dndp_discovered;
  std::size_t mndp_recovered;
  MndpStats stats;
};

void expect_golden_mndp(const ExperimentConfig& cfg, const GoldenMndpRun& want) {
  const DiscoverySimulator sim(cfg);
  const RunResult r = sim.run_once(cfg.base_seed);
  const MndpStats& got = r.mndp_stats;
  EXPECT_EQ(r.physical_pairs, 2678u);
  EXPECT_EQ(r.dndp_discovered, want.dndp_discovered);
  EXPECT_EQ(r.mndp_recovered, want.mndp_recovered);
  EXPECT_EQ(got.requests_sent, want.stats.requests_sent);
  EXPECT_EQ(got.responses_sent, want.stats.responses_sent);
  EXPECT_EQ(got.signature_verifications, want.stats.signature_verifications);
  EXPECT_EQ(got.signatures_created, want.stats.signatures_created);
  EXPECT_EQ(got.requests_dropped, want.stats.requests_dropped);
  EXPECT_EQ(got.discoveries, want.stats.discoveries);
  EXPECT_EQ(got.false_positive_responses, want.stats.false_positive_responses);
  EXPECT_EQ(got.max_hops_seen, want.stats.max_hops_seen);
  EXPECT_EQ(got.retransmissions, want.stats.retransmissions);
  EXPECT_EQ(got.timeouts, want.stats.timeouts);
}

TEST(GoldenMndp, FullEngineNuTwo) {
  expect_golden_mndp(
      golden_mndp_config(2),
      GoldenMndpRun{765, 1227, MndpStats{21131, 6489, 35019, 15813, 0, 1227, 5262, 2, 0, 0}});
}

TEST(GoldenMndp, FullEngineNuThreeRunsMultiHopChains) {
  expect_golden_mndp(
      golden_mndp_config(3),
      GoldenMndpRun{765, 1295, MndpStats{66932, 16018, 118341, 51090, 0, 1295, 14723, 3, 0, 0}});
}

TEST(GoldenMndp, FullEngineUnderRetriesAndCorruptingFaults) {
  ExperimentConfig cfg = golden_fault_config();
  cfg.full_mndp = true;
  expect_golden_mndp(
      cfg,
      GoldenMndpRun{565, 1093,
                    MndpStats{13625, 4611, 24565, 10913, 396, 1093, 3317, 2, 5333, 8465}});
}

/// FNV-1a over a frame's length and packed words.
std::uint64_t frame_digest(const BitVector& bits) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  fold(h, bits.size());
  for (const std::uint64_t word : bits.words()) fold(h, word);
  return h;
}

/// Signature j of `body` by `signer`'s key.
crypto::IbcSignature sign_prefix(const crypto::IbcAuthority& ibc, NodeId signer,
                                 const SignedBody& body, std::size_t j) {
  const crypto::IbcPrivateKey key = ibc.issue(signer);
  return body.sign(key, key.signing_key(), j);
}

BitVector fixed_nonce(std::uint32_t bits, std::uint64_t pattern) {
  BitVector nonce;
  nonce.append_uint(pattern, bits);
  return nonce;
}

/// A 3-hop chain 10 -> 20 -> 30 -> 40 with neighbor lists of uneven length,
/// so no signed prefix ends on a byte boundary.
const std::vector<std::vector<NodeId>> kHopLists = {
    {node_id(10), node_id(30), node_id(31)},
    {node_id(20), node_id(40), node_id(41), node_id(42), node_id(43)},
    {node_id(30), node_id(50)},
};
const std::vector<NodeId> kHopIds = {node_id(20), node_id(30), node_id(40)};

TEST(GoldenMndp, SignedThreeHopRequestBytes) {
  const WireConfig cfg{};
  const crypto::IbcAuthority ibc(77);
  MndpRequest req;
  req.source = node_id(10);
  req.source_neighbors = {node_id(11), node_id(20), node_id(21), node_id(22)};
  req.nonce = fixed_nonce(cfg.l_n, 0xA5C3F);
  req.nu = 3;
  req.source_signature = sign_prefix(ibc, req.source, SignedBody(req, cfg), 0);
  for (std::size_t i = 0; i < kHopIds.size(); ++i) {
    req.hops.push_back(HopRecord{kHopIds[i], kHopLists[i], {}});
    req.hops.back().signature = sign_prefix(ibc, kHopIds[i], SignedBody(req, cfg), i + 1);
  }
  const BitVector bits = req.encode(cfg);
  EXPECT_EQ(bits.size(), 3077u);
  EXPECT_EQ(frame_digest(bits), 9796074954250048718ULL);
  const auto decoded = MndpRequest::decode(bits, cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->encode(cfg), bits);
}

TEST(GoldenMndp, SignedThreeHopResponseBytes) {
  const WireConfig cfg{};
  const crypto::IbcAuthority ibc(78);
  MndpResponse resp;
  resp.source = node_id(10);
  resp.via = node_id(40);
  resp.responder = node_id(50);
  resp.responder_neighbors = {node_id(40), node_id(51), node_id(52)};
  resp.nonce = fixed_nonce(cfg.l_n, 0x5B2E1);
  resp.nu = 3;
  resp.responder_signature = sign_prefix(ibc, resp.responder, SignedBody(resp, cfg), 0);
  for (std::size_t i = 0; i < kHopIds.size(); ++i) {
    const std::size_t k = kHopIds.size() - 1 - i;  // reverse path order
    resp.hops.push_back(HopRecord{kHopIds[k], kHopLists[k], {}});
    resp.hops.back().signature = sign_prefix(ibc, kHopIds[k], SignedBody(resp, cfg), i + 1);
  }
  const BitVector bits = resp.encode(cfg);
  EXPECT_EQ(bits.size(), 3093u);
  EXPECT_EQ(frame_digest(bits), 1915635602804280599ULL);
  const auto decoded = MndpResponse::decode(bits, cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->encode(cfg), bits);
}

void expect_same_stat(const Stat& a, const Stat& b, const char* what) {
  ASSERT_EQ(a.count(), b.count()) << what;
  if (a.count() == 0) return;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

TEST(GoldenMndp, RunAllIdenticalAtOneAndFourThreads) {
  ExperimentConfig cfg = golden_mndp_config(2);
  cfg.params.runs = 4;
  const DiscoverySimulator sim(cfg);

  ASSERT_EQ(setenv("JRSND_THREADS", "1", 1), 0);
  const PointResult serial = sim.run_all();
  ASSERT_EQ(setenv("JRSND_THREADS", "4", 1), 0);
  const PointResult parallel = sim.run_all();
  ASSERT_EQ(unsetenv("JRSND_THREADS"), 0);

  EXPECT_GT(serial.p_mndp_conditional.mean(), 0.0) << "the engine recovered nothing";
  expect_same_stat(serial.p_dndp, parallel.p_dndp, "p_dndp");
  expect_same_stat(serial.p_mndp, parallel.p_mndp, "p_mndp");
  expect_same_stat(serial.p_mndp_conditional, parallel.p_mndp_conditional,
                   "p_mndp_conditional");
  expect_same_stat(serial.p_jrsnd, parallel.p_jrsnd, "p_jrsnd");
  expect_same_stat(serial.latency_dndp, parallel.latency_dndp, "latency_dndp");
  expect_same_stat(serial.latency_mndp, parallel.latency_mndp, "latency_mndp");
  expect_same_stat(serial.latency_jrsnd, parallel.latency_jrsnd, "latency_jrsnd");
  expect_same_stat(serial.degree, parallel.degree, "degree");
  expect_same_stat(serial.compromised_codes, parallel.compromised_codes, "compromised_codes");
}

// --- GoldenPeriodic -------------------------------------------------------------

/// examples/battlefield_patrol's configuration: n = 120, m = 12, l = 10,
/// q = 8, nu = 3 on a 2 km field, 8 epochs of T = 30 s.
PeriodicDiscoveryRunner::Config golden_patrol_config() {
  PeriodicDiscoveryRunner::Config cfg;
  cfg.params = Params::defaults();
  cfg.params.n = 120;
  cfg.params.m = 12;
  cfg.params.l = 10;
  cfg.params.q = 8;
  cfg.params.nu = 3;
  cfg.params.field_width = 2000.0;
  cfg.params.field_height = 2000.0;
  cfg.interval = seconds(30.0);
  cfg.epochs = 8;
  cfg.seed = 7;
  return cfg;
}

struct GoldenEpoch {
  double at;
  std::size_t physical_pairs;
  std::size_t logical_pairs;
  std::size_t dndp_attempts;
  std::size_t dndp_successes;
  std::size_t links_expired;
  MndpStats mndp;
};

void expect_golden_epochs(const std::vector<PeriodicDiscoveryRunner::EpochReport>& got,
                          const std::vector<GoldenEpoch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t e = 0; e < want.size(); ++e) {
    const PeriodicDiscoveryRunner::EpochReport& r = got[e];
    const GoldenEpoch& w = want[e];
    SCOPED_TRACE(testing::Message() << "epoch " << e);
    EXPECT_EQ(r.at.seconds(), w.at);
    EXPECT_EQ(r.physical_pairs, w.physical_pairs);
    EXPECT_EQ(r.logical_pairs, w.logical_pairs);
    EXPECT_EQ(r.dndp_attempts, w.dndp_attempts);
    EXPECT_EQ(r.dndp_successes, w.dndp_successes);
    EXPECT_EQ(r.links_expired, w.links_expired);
    EXPECT_EQ(r.coverage,
              static_cast<double>(w.logical_pairs) / static_cast<double>(w.physical_pairs));
    EXPECT_EQ(r.mndp.requests_sent, w.mndp.requests_sent);
    EXPECT_EQ(r.mndp.responses_sent, w.mndp.responses_sent);
    EXPECT_EQ(r.mndp.signature_verifications, w.mndp.signature_verifications);
    EXPECT_EQ(r.mndp.signatures_created, w.mndp.signatures_created);
    EXPECT_EQ(r.mndp.requests_dropped, w.mndp.requests_dropped);
    EXPECT_EQ(r.mndp.discoveries, w.mndp.discoveries);
    EXPECT_EQ(r.mndp.false_positive_responses, w.mndp.false_positive_responses);
    EXPECT_EQ(r.mndp.max_hops_seen, w.mndp.max_hops_seen);
    EXPECT_EQ(r.mndp.retransmissions, w.mndp.retransmissions);
    EXPECT_EQ(r.mndp.timeouts, w.mndp.timeouts);
  }
}

TEST(GoldenPeriodic, BattlefieldPatrolRandomWaypoint) {
  const PeriodicDiscoveryRunner::Config cfg = golden_patrol_config();
  const sim::Field field(cfg.params.field_width, cfg.params.field_height);
  Rng mobility_rng(11);
  const sim::RandomWaypoint mobility(field, cfg.params.n, {2.0, 12.0, 5.0}, mobility_rng);
  PeriodicDiscoveryRunner runner(cfg, mobility);
  expect_golden_epochs(
      runner.run(),
      {
          {0, 460, 357, 753, 167, 0, MndpStats{3152, 190, 3813, 1645, 0, 190, 0, 3, 0, 0}},
          {30, 623, 534, 643, 117, 0, MndpStats{11099, 174, 8668, 2645, 0, 174, 0, 3, 0, 0}},
          {60, 734, 622, 768, 142, 0, MndpStats{22728, 201, 10577, 3149, 0, 201, 0, 3, 0, 0}},
          {90, 766, 663, 795, 141, 111, MndpStats{33016, 224, 10916, 3479, 0, 224, 0, 3, 0, 0}},
          {120, 738, 635, 654, 126, 250, MndpStats{28818, 161, 9264, 3028, 0, 161, 0, 3, 0, 0}},
          {150, 734, 631, 606, 94, 311, MndpStats{26804, 153, 9646, 3011, 0, 153, 0, 3, 0, 0}},
          {180, 727, 645, 538, 106, 286, MndpStats{28846, 134, 10846, 3235, 0, 134, 0, 3, 0, 0}},
          {210, 777, 694, 634, 122, 265, MndpStats{32516, 173, 11646, 3541, 0, 173, 0, 3, 0, 0}},
      });
}

TEST(GoldenPeriodic, StaticUniformPlacement) {
  const PeriodicDiscoveryRunner::Config cfg = golden_patrol_config();
  const sim::Field field(cfg.params.field_width, cfg.params.field_height);
  Rng placement_rng(11);
  const sim::UniformPlacement placement(field, cfg.params.n, placement_rng);
  PeriodicDiscoveryRunner runner(cfg, placement);
  // Static nodes: the first epoch does most of the work, the second patches
  // three more pairs through M-NDP, and every later epoch repeats the same
  // fruitless attempts on the pairs the reactive jammer holds apart.
  const MndpStats settled{4345, 0, 4436, 1592, 0, 0, 0, 3, 0, 0};
  expect_golden_epochs(
      runner.run(),
      {
          {0, 461, 339, 763, 159, 0, MndpStats{3275, 180, 4541, 1699, 0, 180, 0, 3, 0, 0}},
          {30, 461, 342, 244, 0, 0, MndpStats{4340, 3, 4446, 1597, 0, 3, 0, 3, 0, 0}},
          {60, 461, 342, 238, 0, 0, settled},
          {90, 461, 342, 238, 0, 0, settled},
          {120, 461, 342, 238, 0, 0, settled},
          {150, 461, 342, 238, 0, 0, settled},
          {180, 461, 342, 238, 0, 0, settled},
          {210, 461, 342, 238, 0, 0, settled},
      });
}

// --- GoldenChip ----------------------------------------------------------------
//
// The chip plane: D-NDP over the chip-accurate ChipPhy (ECC, spreading, the
// reactive jammer's superposed chips, the hard-decision channel, the sync
// scan and RS errata decoding) on every pair of a small all-in-range world.
// Pins the outcome, the frame and strike counts, every discovered pair's
// session code and the PHY Rng's position after the pass, so a faster
// channel or scan must keep every received chip and every Rng draw.

ExperimentConfig golden_chip_config() {
  ExperimentConfig cfg;
  cfg.params = Params::defaults();
  cfg.params.n = 12;
  cfg.params.m = 40;
  cfg.params.l = 10;
  cfg.params.q = 3;
  cfg.params.N = 512;
  cfg.params.field_width = 100.0;  // every node within tx_range of every other
  cfg.params.field_height = 100.0;
  cfg.params.tx_range = 300.0;
  cfg.params.runs = 1;
  cfg.base_seed = 5;
  cfg.jammer = JammerKind::Reactive;
  return cfg;
}

TEST(GoldenChip, ReactiveJammerAllPairs) {
  const ExperimentConfig cfg = golden_chip_config();
  World world(cfg, cfg.base_seed);
  dsss::NodeCodebookCache cache;
  ChipPhy chip(cfg.params, world.topology, *world.jammer, usable_codebook(world.nodes, cache),
               world.phy_rng);
  DndpEngine engine(cfg.params, chip, cfg.redundancy, world.seed);
  Rng order_rng = world.root.split();

  std::size_t discovered = 0;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const auto& [a, b] : world.topology.pairs()) {
    const bool a_first = order_rng.bernoulli(0.5);
    NodeState& initiator = world.nodes[raw(a_first ? a : b)];
    NodeState& responder = world.nodes[raw(a_first ? b : a)];
    if (!engine.run(initiator, responder).discovered) continue;
    ++discovered;
    const LogicalNeighbor* at_a = world.nodes[raw(a)].neighbor(b);
    const LogicalNeighbor* at_b = world.nodes[raw(b)].neighbor(a);
    ASSERT_NE(at_a, nullptr);
    ASSERT_NE(at_b, nullptr);
    ASSERT_EQ(at_a->session_code, at_b->session_code) << "the two ends hold different codes";
    fold(digest, (std::uint64_t{raw(a)} << 32) | raw(b));
    for (const std::uint64_t word : at_a->session_code.words()) fold(digest, word);
  }
  EXPECT_EQ(world.topology.pairs().size(), 66u);
  EXPECT_EQ(discovered, 32u);
  EXPECT_EQ(chip.chip_messages(), 1497u);
  EXPECT_EQ(chip.chip_jams(), 1181u);
  EXPECT_EQ(digest, 959177036475102297ULL);
  EXPECT_EQ(world.phy_rng.next(), 8763584511728328004ULL);
}

/// A random chip pattern of `chips` chips.
BitVector random_chips(Rng& rng, std::size_t chips) {
  BitVector v;
  for (std::size_t i = 0; i < chips; i += 64) {
    v.append_uint(rng.next(), std::min<std::size_t>(64, chips - i));
  }
  return v;
}

TEST(GoldenChip, ChannelReceiveOfThreeSuperposedSignals) {
  // Three overlapping signals at word-unaligned offsets, the last clipped
  // at the window end: silent chips, single-signal chips, two-signal ties
  // and three-signal majorities all occur, in both sign orders.
  Rng pattern_rng(41);
  const BitVector a = random_chips(pattern_rng, 400);
  const BitVector b = random_chips(pattern_rng, 600);
  const BitVector c = random_chips(pattern_rng, 900);
  dsss::ChipChannel channel(1000);
  channel.add(13, a);
  channel.add(77, b);
  channel.add(333, c);

  Rng rng(43);
  const BitVector received = channel.receive(rng);
  EXPECT_EQ(received.size(), 1000u);
  EXPECT_EQ(frame_digest(received), 11176410982427520308ULL);
  EXPECT_EQ(rng.next(), 8806832792052741603ULL);
}

}  // namespace
}  // namespace jrsnd::core
