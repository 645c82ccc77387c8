#include "predist/authority.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "common/math_util.hpp"

namespace jrsnd::predist {
namespace {

PredistParams small_params() {
  PredistParams p;
  p.node_count = 100;
  p.codes_per_node = 10;
  p.holders_per_code = 5;
  p.code_length_chips = 64;
  return p;
}

TEST(PredistParams, DerivedQuantities) {
  PredistParams p = small_params();
  EXPECT_EQ(p.groups_per_round(), 20u);  // w = 100/5
  EXPECT_EQ(p.pool_size(), 200u);        // s = w m
  EXPECT_EQ(p.virtual_node_count(), 0u);

  p.node_count = 98;  // l does not divide n: l' = 2 virtual nodes
  EXPECT_EQ(p.groups_per_round(), 20u);
  EXPECT_EQ(p.virtual_node_count(), 2u);
}

TEST(Authority, EveryNodeGetsMCodes) {
  const CodePoolAuthority authority(small_params(), Rng(1));
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(authority.assignment().codes_of(node_id(i)).size(), 10u);
  }
}

TEST(Authority, NoNodeHoldsDuplicateCodes) {
  const CodePoolAuthority authority(small_params(), Rng(2));
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto& codes = authority.assignment().codes_of(node_id(i));
    const std::set<CodeId> unique(codes.begin(), codes.end());
    EXPECT_EQ(unique.size(), codes.size());
  }
}

TEST(Authority, EveryCodeHasExactlyLHoldersWhenDivisible) {
  const CodePoolAuthority authority(small_params(), Rng(3));
  for (std::uint32_t c = 0; c < authority.pool_size(); ++c) {
    EXPECT_EQ(authority.assignment().holders_of(code_id(c)).size(), 5u) << "code " << c;
  }
}

TEST(Authority, VirtualNodesAbsorbRemainder) {
  PredistParams p = small_params();
  p.node_count = 97;  // l' = 3 virtual slots
  const CodePoolAuthority authority(p, Rng(4));
  EXPECT_EQ(authority.banked_slots(), 3u);
  // Codes now have at most l holders among real nodes.
  std::size_t max_holders = 0;
  for (std::uint32_t c = 0; c < authority.pool_size(); ++c) {
    max_holders = std::max(max_holders,
                           authority.assignment().holders_of(code_id(c)).size());
  }
  EXPECT_LE(max_holders, 5u);
}

TEST(Authority, RoundStructure) {
  // Round i hands out exactly codes [w*i, w*(i+1)): every node's j-th-round
  // code id must fall in that band... verified via the invariant that each
  // node holds exactly one code from each round's band.
  const CodePoolAuthority authority(small_params(), Rng(5));
  const std::uint32_t w = small_params().groups_per_round();
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto& codes = authority.assignment().codes_of(node_id(i));
    std::vector<int> per_round(10, 0);
    for (const CodeId c : codes) ++per_round[raw(c) / w];
    for (const int count : per_round) EXPECT_EQ(count, 1);
  }
}

TEST(Authority, DeterministicGivenSeed) {
  const CodePoolAuthority a1(small_params(), Rng(77));
  const CodePoolAuthority a2(small_params(), Rng(77));
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a1.assignment().codes_of(node_id(i)), a2.assignment().codes_of(node_id(i)));
  }
  EXPECT_EQ(a1.code(code_id(0)).bits(), a2.code(code_id(0)).bits());
}

TEST(Authority, DifferentSeedsDiffer) {
  const CodePoolAuthority a1(small_params(), Rng(1));
  const CodePoolAuthority a2(small_params(), Rng(2));
  int identical = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    identical += a1.assignment().codes_of(node_id(i)) == a2.assignment().codes_of(node_id(i));
  }
  EXPECT_LT(identical, 10);
}

TEST(Authority, PoolCodesHaveRequestedLength) {
  const CodePoolAuthority authority(small_params(), Rng(6));
  EXPECT_EQ(authority.code(code_id(0)).length(), 64u);
  EXPECT_EQ(authority.code(code_id(199)).length(), 64u);
  EXPECT_THROW((void)authority.code(code_id(200)), std::out_of_range);
}

TEST(Authority, SharedCodeFrequencyMatchesEq1) {
  // Empirical P(x >= 1) over all pairs vs Eq. (1): with n=100, m=10, l=5,
  // p_pair = (l-1)/(n-1) = 4/99, P(x>=1) = 1 - (1 - 4/99)^10 ~= 0.338.
  const CodePoolAuthority authority(small_params(), Rng(7));
  const auto histogram = authority.assignment().shared_count_histogram();
  std::size_t pairs = 0;
  for (const auto h : histogram) pairs += h;
  const double p_none = static_cast<double>(histogram[0]) / static_cast<double>(pairs);
  const double expected = std::pow(1.0 - 4.0 / 99.0, 10);
  EXPECT_NEAR(p_none, expected, 0.05);
}

TEST(Authority, JoinUsesBankedVirtualSlots) {
  PredistParams p = small_params();
  p.node_count = 98;  // 2 banked slots
  CodePoolAuthority authority(p, Rng(8));
  ASSERT_EQ(authority.banked_slots(), 2u);
  const auto codes = authority.join(node_id(500));
  EXPECT_EQ(codes.size(), 10u);
  EXPECT_EQ(authority.banked_slots(), 1u);
  EXPECT_TRUE(authority.assignment().has_node(node_id(500)));
  EXPECT_EQ(authority.assignment().codes_of(node_id(500)).size(), 10u);
}

TEST(Authority, JoinBeyondBankDistributesFreshCohort) {
  CodePoolAuthority authority(small_params(), Rng(9));  // bank empty (l | n)
  ASSERT_EQ(authority.banked_slots(), 0u);
  const auto codes = authority.join(node_id(1000));
  EXPECT_EQ(codes.size(), 10u);
  // A fresh cohort of w = 20 slots was created; one consumed.
  EXPECT_EQ(authority.banked_slots(), 19u);
  // Holder counts rise to at most l + 1.
  std::size_t max_holders = authority.assignment().max_holders();
  EXPECT_LE(max_holders, 6u);
}

TEST(Authority, JoinRejectsExistingNode) {
  CodePoolAuthority authority(small_params(), Rng(10));
  EXPECT_THROW((void)authority.join(node_id(5)), std::invalid_argument);
}

TEST(Authority, RejectsZeroParameters) {
  PredistParams p = small_params();
  p.codes_per_node = 0;
  EXPECT_THROW(CodePoolAuthority(p, Rng(1)), std::invalid_argument);
}

TEST(CodeAssignment, SharedCodesIsSymmetricIntersection) {
  CodeAssignment a(16);
  a.assign(node_id(1), {code_id(1), code_id(5), code_id(9)});
  a.assign(node_id(2), {code_id(5), code_id(9), code_id(12)});
  const auto shared12 = a.shared_codes(node_id(1), node_id(2));
  EXPECT_EQ(shared12, (std::vector<CodeId>{code_id(5), code_id(9)}));
  EXPECT_EQ(a.shared_codes(node_id(2), node_id(1)), shared12);
}

TEST(CodeAssignment, HoldersOfUnknownCodeIsEmpty) {
  CodeAssignment a(16);
  a.assign(node_id(1), {code_id(1)});
  EXPECT_TRUE(a.holders_of(code_id(99)).empty());
}

TEST(CodeAssignment, DoubleAssignThrows) {
  CodeAssignment a(16);
  a.assign(node_id(1), {code_id(1)});
  EXPECT_THROW(a.assign(node_id(1), {code_id(2)}), std::invalid_argument);
}

TEST(CodeAssignment, RejectsCodeOutsidePool) {
  CodeAssignment a(16);
  EXPECT_THROW(a.assign(node_id(1), {code_id(3), code_id(16)}), std::out_of_range);
  EXPECT_FALSE(a.has_node(node_id(1)));  // nothing was registered
  EXPECT_TRUE(a.holders_of(code_id(3)).empty());
  a.assign(node_id(1), {code_id(15)});
  EXPECT_EQ(a.holders_of(code_id(15)), (std::vector<NodeId>{node_id(1)}));
}

TEST(CodeAssignment, OutOfOrderAssignsKeepNodesAscending) {
  CodeAssignment a(16);
  a.assign(node_id(9), {code_id(4), code_id(1)});
  a.assign(node_id(2), {code_id(1), code_id(3)});
  a.assign(node_id(5), {code_id(3), code_id(4), code_id(1)});
  EXPECT_EQ(a.node_count(), 3u);
  EXPECT_EQ(a.nodes(), (std::vector<NodeId>{node_id(2), node_id(5), node_id(9)}));
  EXPECT_EQ(a.codes_of(node_id(9)), (std::vector<CodeId>{code_id(1), code_id(4)}));
  EXPECT_EQ(a.codes_of(node_id(2)), (std::vector<CodeId>{code_id(1), code_id(3)}));
  EXPECT_EQ(a.codes_of(node_id(5)), (std::vector<CodeId>{code_id(1), code_id(3), code_id(4)}));
  EXPECT_EQ(a.holders_of(code_id(1)), (std::vector<NodeId>{node_id(2), node_id(5), node_id(9)}));
  EXPECT_EQ(a.holders_of(code_id(4)), (std::vector<NodeId>{node_id(5), node_id(9)}));
  EXPECT_TRUE(a.has_node(node_id(5)));
  EXPECT_FALSE(a.has_node(node_id(3)));
  EXPECT_THROW((void)a.codes_of(node_id(3)), std::out_of_range);
  EXPECT_EQ(a.max_holders(), 3u);
}

struct Eq1Params {
  std::uint32_t n;
  std::uint32_t m;
  std::uint32_t l;
};

class Eq1HistogramSweep : public ::testing::TestWithParam<Eq1Params> {};

TEST_P(Eq1HistogramSweep, EmpiricalSharingMatchesEq1) {
  // Chi-squared goodness of fit of the measured shared-code histogram
  // against Eq. (1), pooling the tail so every bin has decent mass.
  const auto [n, m, l] = GetParam();
  PredistParams pp;
  pp.node_count = n;
  pp.codes_per_node = m;
  pp.holders_per_code = l;
  pp.code_length_chips = 32;
  const CodePoolAuthority authority(pp, Rng(n * 31 + m * 7 + l));
  const auto histogram = authority.assignment().shared_count_histogram();

  double pairs = 0.0;
  for (const auto h : histogram) pairs += static_cast<double>(h);

  double chi2 = 0.0;
  int bins = 0;
  double tail_expected = pairs;
  double tail_observed = pairs;
  for (std::size_t x = 0; x < histogram.size(); ++x) {
    const double expected = pairs * pr_shared_codes(m, static_cast<std::int64_t>(x), n, l);
    if (expected < 8.0) break;  // pool the sparse tail
    chi2 += (static_cast<double>(histogram[x]) - expected) *
            (static_cast<double>(histogram[x]) - expected) / expected;
    tail_expected -= expected;
    tail_observed -= static_cast<double>(histogram[x]);
    ++bins;
  }
  if (tail_expected > 8.0) {
    chi2 += (tail_observed - tail_expected) * (tail_observed - tail_expected) / tail_expected;
    ++bins;
  }
  // Pairs are weakly dependent (fixed group sizes per round), so allow a
  // generous quantile: ~3x the dof covers every seed we ship.
  EXPECT_LT(chi2, 3.0 * bins + 20.0) << "bins=" << bins;
}

INSTANTIATE_TEST_SUITE_P(Configs, Eq1HistogramSweep,
                         ::testing::Values(Eq1Params{100, 10, 5}, Eq1Params{200, 8, 10},
                                           Eq1Params{150, 12, 15}, Eq1Params{120, 20, 6}));

}  // namespace
}  // namespace jrsnd::predist
