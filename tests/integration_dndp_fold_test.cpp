// Golden fold of everything D-NDP reports per pair: every DndpResult field
// of every physical pair, and every dndp.*, crypto.verify.* and
// crypto.reject.* counter the pass leaves, over 20 seeds of an n = 300
// Fig. 2-shaped world for each jammer, with the x-fold sub-session
// redundancy on and off. An engine that verifies, caches or tallies its
// AUTH frames differently must still report exactly these outcomes and
// exactly these counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "jrsnd.hpp"

namespace jrsnd::core {
namespace {

ExperimentConfig fold_config(JammerKind jammer, bool redundancy) {
  ExperimentConfig cfg;
  cfg.params = Params::defaults();  // l = 40, q = 20
  cfg.params.n = 300;
  cfg.params.m = 40;
  cfg.params.field_width = 2000.0;
  cfg.params.field_height = 2000.0;
  cfg.params.runs = 1;
  cfg.jammer = jammer;
  cfg.redundancy = redundancy;
  return cfg;
}

/// FNV-1a over 64-bit words.
void fold(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
}

void fold_name(std::uint64_t& h, std::string_view name) {
  for (const char c : name) fold(h, static_cast<unsigned char>(c));
}

bool folded_counter(std::string_view name) {
  return name.starts_with("dndp.") || name.starts_with("crypto.verify.") ||
         name.starts_with("crypto.reject.");
}

/// D-NDP over every physical pair of one seed's world, in World::run_dndp's
/// order and initiator draws, folding each pair's result and then the
/// counters the pass left in a scratch registry.
void fold_world(const ExperimentConfig& cfg, std::uint64_t seed, std::uint64_t& h) {
  obs::MetricsRegistry scratch;
  const obs::ScopedMetricsRegistry scope(&scratch);
  World world(cfg, seed);
  DndpEngine engine(cfg.params, world.active_phy(), cfg.redundancy, seed);
  Rng order_rng = world.root.split();
  for (const auto& [a, b] : world.topology.pairs()) {
    const bool a_first = order_rng.bernoulli(0.5);
    const DndpResult r =
        engine.run(world.nodes[raw(a_first ? a : b)], world.nodes[raw(a_first ? b : a)]);
    fold(h, (std::uint64_t{raw(a)} << 32) | raw(b));
    fold(h, (std::uint64_t{r.discovered} << 1) | std::uint64_t{r.mac_failure});
    fold(h, r.winning_code ? raw(*r.winning_code) : ~std::uint64_t{0});
    fold(h, r.shared_codes);
    fold(h, r.hellos_delivered);
    fold(h, r.subsessions_completed);
    fold(h, r.retransmissions);
    fold(h, r.timeouts);
  }
  for (const obs::CounterSample& c : scratch.snapshot().counters) {
    if (!folded_counter(c.name)) continue;
    fold_name(h, c.name);
    fold(h, c.value);
  }
}

struct Folds {
  std::uint64_t redundant;
  std::uint64_t naive;
};

void expect_folds(JammerKind jammer, const Folds& want) {
  obs::set_metrics_enabled(true);
  Folds got{0xCBF29CE484222325ULL, 0xCBF29CE484222325ULL};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    fold_world(fold_config(jammer, true), seed, got.redundant);
    fold_world(fold_config(jammer, false), seed, got.naive);
  }
  obs::set_metrics_enabled(false);
  EXPECT_EQ(got.redundant, want.redundant) << "redundancy on";
  EXPECT_EQ(got.naive, want.naive) << "redundancy off";
}

TEST(GoldenDndpFold, NoJammer) {
  expect_folds(JammerKind::None, Folds{15184325655188531073ULL, 4016110378861488174ULL});
}

TEST(GoldenDndpFold, RandomJammer) {
  expect_folds(JammerKind::Random, Folds{1834822464887905722ULL, 10860917740154003108ULL});
}

TEST(GoldenDndpFold, ReactiveJammer) {
  expect_folds(JammerKind::Reactive, Folds{505619398895739666ULL, 11432147699291216815ULL});
}

TEST(GoldenDndpFold, IntelligentJammer) {
  expect_folds(JammerKind::Intelligent, Folds{13817295626325136364ULL, 2124173895755915910ULL});
}

}  // namespace
}  // namespace jrsnd::core
