// The fault-injection subsystem end to end: FaultyPhy unit semantics, the
// no-op-plan bit-identity guarantee, seeded determinism across thread counts,
// crash/restart recovery through the retry discipline, and the chaos
// acceptance envelope (discovery under 20% injected drop recovers to >= 95%
// of fault-free through retransmission).
#include "fault/faulty_phy.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

#include "adversary/jammer.hpp"
#include "core/abstract_phy.hpp"
#include "core/discovery_sim.hpp"
#include "core/dndp.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/topology.hpp"

namespace jrsnd::fault {
namespace {

// ---------------------------------------------------------------------------
// FaultyPhy unit semantics over a loopback inner PHY.

class LoopbackPhy final : public core::PhyModel {
 public:
  void begin_subsession(NodeId, NodeId, CodeId) override {}
  std::optional<BitVector> transmit(NodeId, NodeId, core::TxCode, core::TxClass,
                                    const BitVector& payload) override {
    ++transmits;
    return payload;
  }
  int transmits = 0;
};

BitVector pattern_bits(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

std::size_t hamming(const BitVector& a, const BitVector& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += a.get(i) != b.get(i);
  return d;
}

std::optional<BitVector> send(FaultyPhy& phy, std::uint32_t from, std::uint32_t to,
                              const BitVector& payload) {
  return phy.transmit(node_id(from), node_id(to), core::TxCode{}, core::TxClass::Hello,
                      payload);
}

TEST(FaultyPhy, InactivePlanIsAPassThrough) {
  LoopbackPhy inner;
  FaultyPhy phy(inner, FaultPlan{});
  const BitVector payload = pattern_bits(200, 1);
  for (int i = 0; i < 50; ++i) {
    const auto rx = send(phy, 0, 1, payload);
    ASSERT_TRUE(rx.has_value());
    EXPECT_EQ(*rx, payload);
  }
  const auto& t = phy.totals();
  EXPECT_EQ(t.dropped + t.duplicated + t.reordered + t.corrupted + t.truncated +
                t.crash_blocked,
            0u);
}

TEST(FaultyPhy, CertainDropLosesEverythingDelivered) {
  LoopbackPhy inner;
  FaultPlan plan;
  plan.drop = 1.0;
  FaultyPhy phy(inner, plan);
  const BitVector payload = pattern_bits(64, 2);
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(send(phy, 0, 1, payload).has_value());
  EXPECT_EQ(phy.totals().dropped, 20u);
  EXPECT_EQ(inner.transmits, 20);  // the channel delivered; the fault ate it
}

TEST(FaultyPhy, CorruptionFlipsABoundedBurst) {
  LoopbackPhy inner;
  FaultPlan plan;
  plan.corrupt = 1.0;
  plan.corrupt_bits = 5;
  FaultyPhy phy(inner, plan);
  const BitVector payload = pattern_bits(128, 3);
  for (int i = 0; i < 30; ++i) {
    const auto rx = send(phy, 0, 1, payload);
    ASSERT_TRUE(rx.has_value());
    const std::size_t d = hamming(*rx, payload);
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 5u);  // clamped burst
  }
  EXPECT_EQ(phy.totals().corrupted, 30u);
}

TEST(FaultyPhy, TruncationShortensTheMessage) {
  LoopbackPhy inner;
  FaultPlan plan;
  plan.truncate = 1.0;
  FaultyPhy phy(inner, plan);
  const BitVector payload = pattern_bits(96, 4);
  for (int i = 0; i < 20; ++i) {
    const auto rx = send(phy, 0, 1, payload);
    ASSERT_TRUE(rx.has_value());
    EXPECT_LT(rx->size(), payload.size());
  }
  EXPECT_EQ(phy.totals().truncated, 20u);
}

TEST(FaultyPhy, ReorderSwapsAdjacentMessagesPerLink) {
  LoopbackPhy inner;
  FaultPlan plan;
  plan.reorder = 1.0;
  FaultyPhy phy(inner, plan);
  const BitVector first = pattern_bits(32, 5);
  const BitVector second = pattern_bits(32, 6);
  // First message parks (the receiver sees nothing)...
  EXPECT_FALSE(send(phy, 0, 1, first).has_value());
  // ...and pops when the next one arrives, which parks in its place.
  const auto rx = send(phy, 0, 1, second);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, first);
  EXPECT_GE(phy.totals().reordered, 1u);
  // The held slot is per directed link: the reverse direction is untouched
  // until its own first message parks.
  EXPECT_FALSE(send(phy, 1, 0, first).has_value());
}

TEST(FaultyPhy, DuplicateReplaysTheStaleCopy) {
  LoopbackPhy inner;
  FaultPlan plan;
  plan.duplicate = 1.0;
  FaultyPhy phy(inner, plan);
  const BitVector first = pattern_bits(32, 7);
  const BitVector second = pattern_bits(32, 8);
  const auto rx1 = send(phy, 0, 1, first);
  ASSERT_TRUE(rx1.has_value());
  EXPECT_EQ(*rx1, first);  // original arrives, a copy parks
  const auto rx2 = send(phy, 0, 1, second);
  ASSERT_TRUE(rx2.has_value());
  EXPECT_EQ(*rx2, first);  // the receiver sees the replayed frame
  EXPECT_GE(phy.totals().duplicated, 1u);
}

TEST(FaultyPhy, CrashWindowBlocksBothDirectionsThenHeals) {
  LoopbackPhy inner;
  FaultPlan plan;
  plan.crashes.push_back({node_id(1), TimePoint{10.0}, Duration{5.0}});
  FaultyPhy phy(inner, plan);
  const BitVector payload = pattern_bits(16, 9);

  phy.set_now(TimePoint{9.9});
  EXPECT_TRUE(send(phy, 0, 1, payload).has_value());
  phy.set_now(TimePoint{10.0});
  EXPECT_FALSE(send(phy, 0, 1, payload).has_value());  // to a down node
  EXPECT_FALSE(send(phy, 1, 0, payload).has_value());  // from a down node
  EXPECT_TRUE(send(phy, 0, 2, payload).has_value());   // bystanders unaffected
  phy.set_now(TimePoint{15.0});
  EXPECT_TRUE(send(phy, 0, 1, payload).has_value());  // restarted
  EXPECT_EQ(phy.totals().crash_blocked, 2u);
  // Of the five sends, the two blocked ones never reach the inner PHY.
  EXPECT_EQ(inner.transmits, 3);
}

TEST(FaultyPhy, AutoTickAdvancesTheClockPerTransmit) {
  LoopbackPhy inner;
  FaultPlan plan;
  plan.auto_tick = 0.5;
  FaultyPhy phy(inner, plan);
  const BitVector payload = pattern_bits(16, 10);
  (void)send(phy, 0, 1, payload);
  EXPECT_DOUBLE_EQ(phy.now().seconds(), 0.5);
  (void)send(phy, 0, 1, payload);
  EXPECT_DOUBLE_EQ(phy.now().seconds(), 1.0);
}

TEST(FaultyPhy, SamePlanAndSaltReplayIdentically) {
  FaultPlan plan;
  plan.seed = 31;
  plan.drop = 0.3;
  plan.corrupt = 0.2;
  plan.duplicate = 0.1;
  plan.reorder = 0.1;
  plan.truncate = 0.1;

  auto run = [&](std::uint64_t salt) {
    LoopbackPhy inner;
    FaultyPhy phy(inner, plan, salt);
    std::vector<std::optional<BitVector>> seen;
    for (std::uint32_t i = 0; i < 200; ++i) {
      seen.push_back(send(phy, i % 3, 3 + i % 2, pattern_bits(64, 100 + i)));
    }
    return std::pair{seen, phy.totals()};
  };

  const auto [a, ta] = run(5);
  const auto [b, tb] = run(5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
  EXPECT_EQ(ta.dropped, tb.dropped);
  EXPECT_EQ(ta.corrupted, tb.corrupted);

  // A different salt decorrelates the stream.
  const auto [c, tc] = run(6);
  int differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) differing += a[i] != c[i];
  EXPECT_GT(differing, 0);
}

// ---------------------------------------------------------------------------
// Simulator-level guarantees.

core::ExperimentConfig sim_config() {
  core::ExperimentConfig cfg;
  cfg.params = core::Params::defaults();
  cfg.params.n = 150;
  cfg.params.m = 20;
  cfg.params.l = 15;
  cfg.params.q = 20;
  cfg.params.field_width = 1500.0;
  cfg.params.field_height = 1500.0;
  cfg.params.runs = 4;
  cfg.base_seed = 42;
  cfg.jammer = core::JammerKind::Random;
  return cfg;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "counter " << name << " not in snapshot";
  return 0;
}

void expect_same_run(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.physical_pairs, b.physical_pairs);
  EXPECT_EQ(a.dndp_discovered, b.dndp_discovered);
  EXPECT_EQ(a.mndp_recovered, b.mndp_recovered);
  EXPECT_EQ(a.compromised_codes, b.compromised_codes);
  EXPECT_EQ(a.p_dndp, b.p_dndp);
  EXPECT_EQ(a.p_mndp, b.p_mndp);
  EXPECT_EQ(a.p_jrsnd, b.p_jrsnd);
  EXPECT_EQ(a.latency_dndp_s, b.latency_dndp_s);
  EXPECT_EQ(a.latency_jrsnd_s, b.latency_jrsnd_s);
}

TEST(FaultInjection, NoOpPlanLeavesResultsAndMetricsBitIdentical) {
  // The acceptance gate: with a present-but-inactive FaultPlan, discovery
  // results AND every observable counter must be bit-identical to the
  // fault-free pipeline (the FaultyPhy wrapper makes zero draws).
  core::ExperimentConfig plain = sim_config();
  plain.full_mndp = true;  // exercise the hardened MndpEngine paths too
  core::ExperimentConfig wrapped = plain;
  wrapped.faults = FaultPlan{};

  obs::set_metrics_enabled(true);
  obs::registry().reset();
  const core::DiscoverySimulator sim_plain(plain);
  const core::RunResult a = sim_plain.run_once(plain.base_seed);
  const obs::MetricsSnapshot snap_a = obs::registry().snapshot();

  obs::registry().reset();
  const core::DiscoverySimulator sim_wrapped(wrapped);
  const core::RunResult b = sim_wrapped.run_once(plain.base_seed);
  const obs::MetricsSnapshot snap_b = obs::registry().snapshot();
  obs::set_metrics_enabled(false);

  expect_same_run(a, b);
  EXPECT_EQ(b.dndp_retransmissions, 0u);
  EXPECT_EQ(b.dndp_timeouts, 0u);
  EXPECT_EQ(b.faults_injected, 0u);

  ASSERT_EQ(snap_a.counters.size(), snap_b.counters.size());
  for (std::size_t i = 0; i < snap_a.counters.size(); ++i) {
    EXPECT_EQ(snap_a.counters[i].name, snap_b.counters[i].name);
    EXPECT_EQ(snap_a.counters[i].value, snap_b.counters[i].value)
        << snap_a.counters[i].name;
  }
}

TEST(FaultInjection, ActiveFaultsReplayIdenticallyAcrossThreadCounts) {
  // Determinism replay: the same seed and FaultPlan must produce
  // bit-identical aggregates and counters under JRSND_THREADS=1 and 8.
  core::ExperimentConfig cfg = sim_config();
  FaultPlan plan;
  plan.seed = 17;
  plan.drop = 0.1;
  plan.corrupt = 0.05;
  plan.duplicate = 0.05;
  plan.reorder = 0.05;
  plan.clock_drift_max = 0.01;
  plan.auto_tick = 0.001;
  plan.crashes.push_back({node_id(3), TimePoint{0.2}, Duration{0.4}});
  cfg.faults = plan;
  cfg.params.retry.max_retx = 2;
  const core::DiscoverySimulator sim(cfg);

  obs::set_metrics_enabled(true);
  obs::registry().reset();
  ASSERT_EQ(setenv("JRSND_THREADS", "1", 1), 0);
  const core::PointResult serial = sim.run_all();
  const obs::MetricsSnapshot snap_serial = obs::registry().snapshot();

  obs::registry().reset();
  ASSERT_EQ(setenv("JRSND_THREADS", "8", 1), 0);
  const core::PointResult parallel = sim.run_all();
  const obs::MetricsSnapshot snap_parallel = obs::registry().snapshot();
  obs::set_metrics_enabled(false);
  ASSERT_EQ(unsetenv("JRSND_THREADS"), 0);

  auto expect_stat = [](const core::Stat& a, const core::Stat& b, const char* what) {
    ASSERT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.mean(), b.mean()) << what;
    EXPECT_EQ(a.variance(), b.variance()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
  };
  expect_stat(serial.p_dndp, parallel.p_dndp, "p_dndp");
  expect_stat(serial.p_mndp, parallel.p_mndp, "p_mndp");
  expect_stat(serial.p_jrsnd, parallel.p_jrsnd, "p_jrsnd");
  expect_stat(serial.latency_dndp, parallel.latency_dndp, "latency_dndp");

  ASSERT_EQ(snap_serial.counters.size(), snap_parallel.counters.size());
  for (std::size_t i = 0; i < snap_serial.counters.size(); ++i) {
    EXPECT_EQ(snap_serial.counters[i].value, snap_parallel.counters[i].value)
        << snap_serial.counters[i].name;
  }
  // And the faults actually fired, so the comparison was not vacuous.
  EXPECT_GT(counter_value(snap_serial, "fault.injected.drop"), 0u);
  EXPECT_GT(counter_value(snap_serial, "dndp.retx.attempts"), 0u);
}

TEST(FaultInjection, DiscoveryRecoversWithinTheChaosEnvelope) {
  // The headline guarantee (also asserted by `jrsnd chaos` and
  // bench/chaos_resilience): under 20% injected message drop the hardened
  // D-NDP recovers to >= 95% of its fault-free discovery ratio; without the
  // retry discipline it visibly degrades.
  core::ExperimentConfig cfg;
  cfg.params = core::Params::defaults();
  cfg.params.n = 200;
  cfg.params.m = 25;
  cfg.params.l = 20;
  cfg.params.runs = 2;
  cfg.base_seed = 1;
  cfg.jammer = core::JammerKind::None;  // isolate the injected faults

  auto mean_p_dndp = [](const core::ExperimentConfig& c) {
    const core::DiscoverySimulator sim(c);
    core::Stat p;
    for (std::uint32_t run = 0; run < c.params.runs; ++run) {
      p.add(sim.run_once(c.base_seed + run).p_dndp);
    }
    return p.mean();
  };

  const double baseline = mean_p_dndp(cfg);
  ASSERT_GT(baseline, 0.5);

  FaultPlan plan;
  plan.seed = cfg.base_seed;
  plan.drop = 0.2;

  core::ExperimentConfig hardened = cfg;
  hardened.faults = plan;
  hardened.params.retry.max_retx = 3;
  const double recovered = mean_p_dndp(hardened);

  core::ExperimentConfig oneshot = cfg;
  oneshot.faults = plan;
  const double degraded = mean_p_dndp(oneshot);

  EXPECT_GE(recovered, 0.95 * baseline)
      << "baseline " << baseline << " recovered " << recovered;
  EXPECT_LT(degraded, 0.8 * baseline)
      << "without retries 20% drop must visibly degrade discovery";
}

// ---------------------------------------------------------------------------
// Crash/restart through a real D-NDP handshake.

TEST(FaultInjection, CrashedInitiatorRestartsAndCompletesTheHandshake) {
  // Kill a node mid-handshake; after the window it restarts with codebook
  // and key material intact, and the pair still discovers within the retry
  // budget. The injected-fault and timeout counters must match the schedule
  // exactly: every blocked transmit expired exactly one timeout and cost
  // exactly one retransmission.
  core::Params params = core::Params::defaults();
  params.n = 20;
  params.m = 6;
  params.l = 10;
  params.N = 64;
  params.field_width = 100.0;
  params.field_height = 100.0;
  params.tx_range = 500.0;  // fully connected
  params.retry.max_retx = 4;

  const predist::CodePoolAuthority authority(params.predist(), Rng(11));
  const crypto::IbcAuthority ibc(12);
  const sim::Field field(params.field_width, params.field_height);
  std::vector<sim::Position> positions;
  for (std::uint32_t i = 0; i < params.n; ++i) {
    positions.push_back({static_cast<double>(i % 5) * 20.0, static_cast<double>(i / 5) * 20.0});
  }
  const sim::Topology topology(field, positions, params.tx_range);
  Rng phy_rng(13);
  Rng node_rng(14);
  std::vector<core::NodeState> nodes =
      core::issue_nodes(authority, ibc, params.n, params.gamma, node_rng);

  // Find a pair sharing at least one code.
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (std::uint32_t i = 0; i < params.n && a == kInvalidNode; ++i) {
    for (std::uint32_t j = i + 1; j < params.n; ++j) {
      if (!authority.assignment().shared_codes(node_id(i), node_id(j)).empty()) {
        a = node_id(i);
        b = node_id(j);
        break;
      }
    }
  }
  ASSERT_NE(a, kInvalidNode);

  adversary::NullJammer jammer;
  core::AbstractPhy inner(topology, jammer, phy_rng);

  // Each transmit ticks 10 ms; node `a` is down for [0, 35) ms, so exactly
  // the first three transmission attempts (at 10, 20, 30 ms) are blocked and
  // the fourth goes through — well inside the 4-retransmission budget.
  FaultPlan plan;
  plan.auto_tick = 0.010;
  plan.crashes.push_back({a, TimePoint{0.0}, Duration{0.035}});
  FaultyPhy phy(inner, plan);

  obs::set_metrics_enabled(true);
  obs::registry().reset();
  obs::preregister_core_metrics();  // zero-valued counters appear in snapshots
  core::DndpEngine engine(params, phy, /*redundancy=*/true, /*retry_seed=*/99,
                          &phy.clocks());
  const core::DndpResult result = engine.run(nodes[raw(a)], nodes[raw(b)]);
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  obs::set_metrics_enabled(false);

  EXPECT_TRUE(result.discovered);
  EXPECT_EQ(phy.totals().crash_blocked, 3u);
  EXPECT_EQ(result.timeouts, 3u);
  EXPECT_EQ(result.retransmissions, 3u);

  // Both sides hold the link despite the mid-handshake outage.
  EXPECT_NE(nodes[raw(a)].neighbor(b), nullptr);
  EXPECT_NE(nodes[raw(b)].neighbor(a), nullptr);

  // Obs counters reproduce the schedule.
  EXPECT_EQ(counter_value(snap, "fault.injected.crash_blocked"), 3u);
  EXPECT_EQ(counter_value(snap, "dndp.timeout.expired"), 3u);
  EXPECT_EQ(counter_value(snap, "dndp.retx.attempts"), 3u);
  // Only the final retransmission (the one that got through) recovers.
  EXPECT_EQ(counter_value(snap, "dndp.retx.recovered"), 1u);
  EXPECT_EQ(counter_value(snap, "dndp.timeout.exhausted"), 0u);
}

}  // namespace
}  // namespace jrsnd::fault
