#include "core/periodic_discovery.hpp"

#include <gtest/gtest.h>

#include "sim/field.hpp"

namespace jrsnd::core {
namespace {

PeriodicDiscoveryRunner::Config small_config() {
  PeriodicDiscoveryRunner::Config cfg;
  cfg.params = Params::defaults();
  cfg.params.n = 80;
  cfg.params.m = 10;
  cfg.params.l = 8;
  cfg.params.q = 4;
  cfg.params.nu = 3;
  cfg.params.field_width = 1500.0;
  cfg.params.field_height = 1500.0;
  cfg.interval = seconds(30.0);
  cfg.link_timeout = seconds(60.0);
  cfg.epochs = 4;
  cfg.seed = 5;
  return cfg;
}

TEST(PeriodicDiscovery, StaticNetworkConvergesAndStaysConverged) {
  const auto cfg = small_config();
  const sim::Field field(cfg.params.field_width, cfg.params.field_height);
  Rng rng(1);
  const sim::UniformPlacement placement(field, cfg.params.n, rng);
  PeriodicDiscoveryRunner runner(cfg, placement);
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 4u);
  // Static nodes: nothing expires, coverage is monotone non-decreasing and
  // high once D-NDP + M-NDP have swept.
  for (const auto& r : reports) EXPECT_EQ(r.links_expired, 0u);
  EXPECT_GE(reports.back().coverage, reports.front().coverage);
  EXPECT_GT(reports.back().coverage, 0.7);
  // Work tapers off once the neighborhood is known.
  EXPECT_LT(reports.back().dndp_attempts, reports.front().dndp_attempts);
}

TEST(PeriodicDiscovery, MobileNetworkExpiresStaleLinks) {
  auto cfg = small_config();
  cfg.epochs = 6;
  const sim::Field field(cfg.params.field_width, cfg.params.field_height);
  Rng rng(2);
  const sim::RandomWaypoint mobility(field, cfg.params.n, {8.0, 15.0, 1.0}, rng);
  PeriodicDiscoveryRunner runner(cfg, mobility);
  const auto reports = runner.run();
  std::size_t expired_total = 0;
  for (const auto& r : reports) expired_total += r.links_expired;
  // Fast movers at a 60 s timeout: some links must expire by epoch 6.
  EXPECT_GT(expired_total, 0u);
  // And discovery keeps rebuilding coverage anyway.
  EXPECT_GT(reports.back().coverage, 0.5);
}

/// Four nodes in one cluster; from `leave_at` on, node 0 sits in the far
/// corner, out of everyone's range.
class LeavingNode final : public sim::MobilityModel {
 public:
  explicit LeavingNode(TimePoint leave_at) : leave_at_(leave_at) {}
  [[nodiscard]] std::size_t node_count() const noexcept override { return 4; }
  [[nodiscard]] sim::Position position(NodeId node, TimePoint t) const override {
    if (raw(node) == 0 && t >= leave_at_) return {1400.0, 1400.0};
    return {100.0 + 40.0 * raw(node), 100.0};
  }

 private:
  TimePoint leave_at_;
};

TEST(PeriodicDiscovery, OneTickExpiresEveryStaleLinkOfANode) {
  // Node 0 holds three links when it leaves; the next expiry tick must drop
  // all three (walking the neighbor list while removing from it would skip
  // every other one).
  auto cfg = small_config();
  cfg.params.n = 4;
  cfg.params.l = 4;
  cfg.params.q = 0;
  cfg.link_timeout = seconds(20.0);
  cfg.epochs = 3;
  const LeavingNode mobility(TimePoint{60.0});  // the start of epoch 2
  PeriodicDiscoveryRunner runner(cfg, mobility);
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 3u);
  ASSERT_EQ(reports[1].physical_pairs, 6u);
  ASSERT_EQ(reports[1].logical_pairs, 6u) << "the cluster must be fully linked first";
  EXPECT_EQ(reports[2].physical_pairs, 3u);
  EXPECT_EQ(reports[2].links_expired, 3u);
  EXPECT_EQ(reports[2].logical_pairs, 3u);
}

TEST(PeriodicDiscovery, DeterministicInSeed) {
  const auto cfg = small_config();
  const sim::Field field(cfg.params.field_width, cfg.params.field_height);
  Rng rng(3);
  const sim::UniformPlacement placement(field, cfg.params.n, rng);
  PeriodicDiscoveryRunner r1(cfg, placement);
  PeriodicDiscoveryRunner r2(cfg, placement);
  const auto a = r1.run();
  const auto b = r2.run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].logical_pairs, b[i].logical_pairs);
    EXPECT_EQ(a[i].dndp_successes, b[i].dndp_successes);
    EXPECT_EQ(a[i].mndp.discoveries, b[i].mndp.discoveries);
  }
}

TEST(PeriodicDiscovery, MndpContributesDiscoveries) {
  auto cfg = small_config();
  cfg.params.q = 10;  // push D-NDP down so M-NDP visibly contributes
  const sim::Field field(cfg.params.field_width, cfg.params.field_height);
  Rng rng(4);
  const sim::UniformPlacement placement(field, cfg.params.n, rng);
  PeriodicDiscoveryRunner runner(cfg, placement);
  const auto reports = runner.run();
  std::size_t mndp_discoveries = 0;
  for (const auto& r : reports) mndp_discoveries += r.mndp.discoveries;
  EXPECT_GT(mndp_discoveries, 0u);
}

/// Two nodes on a script: adjacent until `apart_from`, then far apart.
class TwoNodeScript final : public sim::MobilityModel {
 public:
  explicit TwoNodeScript(TimePoint apart_from) : apart_from_(apart_from) {}

  [[nodiscard]] std::size_t node_count() const noexcept override { return 2; }

  [[nodiscard]] sim::Position position(NodeId node, TimePoint t) const override {
    if (raw(node) == 0) return {0.0, 0.0};
    return t < apart_from_ ? sim::Position{10.0, 0.0} : sim::Position{1900.0, 0.0};
  }

 private:
  TimePoint apart_from_;
};

TEST(PeriodicDiscovery, LinkExpiryBoundaryIsStrict) {
  // Regression for the link-expiry edge: a link whose silence EQUALS
  // link_timeout exactly must survive that tick — expiry needs
  // now - last_contact strictly greater than the timeout, otherwise a
  // same-tick rediscovery double-counts the pair as both expired and
  // discovered in one epoch report.
  PeriodicDiscoveryRunner::Config cfg;
  cfg.params = Params::defaults();
  cfg.params.n = 2;
  cfg.params.m = 2;
  cfg.params.l = 2;  // both nodes hold every code -> discovery is certain
  cfg.params.q = 0;
  cfg.params.field_width = 2000.0;
  cfg.params.field_height = 100.0;
  cfg.params.tx_range = 100.0;
  cfg.interval = seconds(30.0);
  cfg.link_timeout = seconds(60.0);
  cfg.epochs = 5;
  cfg.seed = 21;

  // Timeline: adjacent at t=0 (epoch 0, discovery) and t=30 (epoch 1,
  // last_contact := 30), apart from t=60 on. Epoch 2 (t=60): silence 30 s,
  // live. Epoch 3 (t=90): silence exactly 60 s == timeout — the boundary
  // this test pins; must still be live. Epoch 4 (t=120): 90 s > 60 s, gone.
  const TwoNodeScript script(TimePoint{60.0});
  PeriodicDiscoveryRunner runner(cfg, script);
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 5u);

  EXPECT_GT(reports[0].dndp_successes, 0u) << "pair must discover while adjacent";
  EXPECT_EQ(reports[1].links_expired, 0u);
  EXPECT_EQ(reports[2].links_expired, 0u);
  EXPECT_EQ(reports[3].links_expired, 0u)
      << "silence == link_timeout is the boundary: the link must survive";
  EXPECT_EQ(reports[4].links_expired, 1u)
      << "one tick past the boundary the link must expire";
}

TEST(PeriodicDiscovery, LinkPartedBeforeNextEpochExpires) {
  // The LinkExpiryBoundaryIsStrict pair, but apart from t=30: the link made
  // in epoch 0 is never seen adjacent at a later epoch start, so its
  // silence counts from epoch 0. t=30 and t=60 are within the 60 s
  // timeout; t=90 is past it.
  PeriodicDiscoveryRunner::Config cfg;
  cfg.params = Params::defaults();
  cfg.params.n = 2;
  cfg.params.m = 2;
  cfg.params.l = 2;
  cfg.params.q = 0;
  cfg.params.field_width = 2000.0;
  cfg.params.field_height = 100.0;
  cfg.params.tx_range = 100.0;
  cfg.interval = seconds(30.0);
  cfg.link_timeout = seconds(60.0);
  cfg.epochs = 10;
  cfg.seed = 21;

  const TwoNodeScript script(TimePoint{30.0});
  PeriodicDiscoveryRunner runner(cfg, script);
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 10u);

  EXPECT_GT(reports[0].dndp_successes, 0u) << "pair must discover while adjacent";
  for (std::size_t k = 0; k < reports.size(); ++k) {
    EXPECT_EQ(reports[k].links_expired, k == 3 ? 1u : 0u) << "epoch " << k;
  }
}

TEST(PeriodicDiscovery, ReportsAreInternallyConsistent) {
  const auto cfg = small_config();
  const sim::Field field(cfg.params.field_width, cfg.params.field_height);
  Rng rng(6);
  const sim::UniformPlacement placement(field, cfg.params.n, rng);
  PeriodicDiscoveryRunner runner(cfg, placement);
  for (const auto& r : runner.run()) {
    EXPECT_LE(r.dndp_successes, r.dndp_attempts);
    EXPECT_LE(r.logical_pairs, r.physical_pairs);
    EXPECT_GE(r.coverage, 0.0);
    EXPECT_LE(r.coverage, 1.0);
    EXPECT_DOUBLE_EQ(r.coverage, r.physical_pairs == 0
                                     ? 1.0
                                     : static_cast<double>(r.logical_pairs) /
                                           static_cast<double>(r.physical_pairs));
  }
}

}  // namespace
}  // namespace jrsnd::core
