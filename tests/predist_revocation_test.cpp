#include "predist/revocation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "common/rng.hpp"

namespace jrsnd::predist {
namespace {

std::vector<CodeId> three_codes() { return {code_id(1), code_id(2), code_id(3)}; }

TEST(Revocation, FreshStateIsAllUsable) {
  const RevocationState state(5, three_codes());
  EXPECT_TRUE(state.is_usable(code_id(1)));
  EXPECT_FALSE(state.is_revoked(code_id(1)));
  EXPECT_EQ(state.usable_codes().size(), 3u);
  EXPECT_EQ(state.total_invalid_verifications(), 0u);
}

TEST(Revocation, UnknownCodeIsNotUsable) {
  const RevocationState state(5, three_codes());
  EXPECT_FALSE(state.is_usable(code_id(99)));
  EXPECT_FALSE(state.is_revoked(code_id(99)));
  EXPECT_EQ(state.invalid_count(code_id(99)), 0u);
}

TEST(Revocation, DuplicateAndUnsortedHeldCodesCollapse) {
  RevocationState state(2, {code_id(7), code_id(3), code_id(7), code_id(5), code_id(3)});
  EXPECT_EQ(state.usable_codes(), (std::vector<CodeId>{code_id(3), code_id(5), code_id(7)}));
  EXPECT_FALSE(state.report_invalid(code_id(7)));
  EXPECT_FALSE(state.report_invalid(code_id(7)));
  EXPECT_TRUE(state.report_invalid(code_id(7)));  // 3 > gamma: one counter, not two
  EXPECT_EQ(state.invalid_count(code_id(7)), 3u);
  EXPECT_TRUE(state.is_revoked(code_id(7)));
  EXPECT_FALSE(state.is_usable(code_id(7)));
  EXPECT_TRUE(state.revoke(code_id(3)));
  EXPECT_FALSE(state.revoke(code_id(3)));  // already revoked
  EXPECT_FALSE(state.revoke(code_id(4)));  // not held
  EXPECT_TRUE(state.is_revoked(code_id(3)));
  EXPECT_FALSE(state.is_revoked(code_id(4)));
  EXPECT_FALSE(state.is_usable(code_id(4)));
  EXPECT_TRUE(state.is_usable(code_id(5)));
  EXPECT_EQ(state.invalid_count(code_id(5)), 0u);
  EXPECT_EQ(state.invalid_count(code_id(3)), 0u);
  EXPECT_EQ(state.usable_codes(), (std::vector<CodeId>{code_id(5)}));
  EXPECT_EQ(state.total_invalid_verifications(), 3u);
}

TEST(Revocation, ThresholdCrossingRevokes) {
  RevocationState state(3, three_codes());
  EXPECT_FALSE(state.report_invalid(code_id(1)));  // 1
  EXPECT_FALSE(state.report_invalid(code_id(1)));  // 2
  EXPECT_FALSE(state.report_invalid(code_id(1)));  // 3 == gamma: not yet
  EXPECT_TRUE(state.report_invalid(code_id(1)));   // 4 > gamma: revoked
  EXPECT_TRUE(state.is_revoked(code_id(1)));
  EXPECT_FALSE(state.is_usable(code_id(1)));
  EXPECT_EQ(state.usable_codes().size(), 2u);
}

TEST(Revocation, RevokedCodeStopsCounting) {
  RevocationState state(1, three_codes());
  (void)state.report_invalid(code_id(2));
  (void)state.report_invalid(code_id(2));  // revokes (2 > 1)
  ASSERT_TRUE(state.is_revoked(code_id(2)));
  const std::uint64_t before = state.total_invalid_verifications();
  EXPECT_FALSE(state.report_invalid(code_id(2)));  // no longer de-spread
  EXPECT_EQ(state.total_invalid_verifications(), before);
}

TEST(Revocation, PerCodeCountersAreIndependent) {
  RevocationState state(2, three_codes());
  (void)state.report_invalid(code_id(1));
  (void)state.report_invalid(code_id(1));
  (void)state.report_invalid(code_id(2));
  EXPECT_EQ(state.invalid_count(code_id(1)), 2u);
  EXPECT_EQ(state.invalid_count(code_id(2)), 1u);
  EXPECT_EQ(state.invalid_count(code_id(3)), 0u);
  EXPECT_FALSE(state.is_revoked(code_id(1)));
}

TEST(Revocation, GammaZeroRevokesOnFirstReport) {
  RevocationState state(0, three_codes());
  EXPECT_TRUE(state.report_invalid(code_id(3)));
  EXPECT_TRUE(state.is_revoked(code_id(3)));
  EXPECT_EQ(state.total_invalid_verifications(), 1u);
}

TEST(Revocation, ReportOnUnknownCodeThrows) {
  RevocationState state(5, three_codes());
  EXPECT_THROW((void)state.report_invalid(code_id(99)), std::invalid_argument);
}

TEST(Revocation, TotalCountsAcrossCodes) {
  RevocationState state(10, three_codes());
  for (int i = 0; i < 4; ++i) (void)state.report_invalid(code_id(1));
  for (int i = 0; i < 6; ++i) (void)state.report_invalid(code_id(2));
  EXPECT_EQ(state.total_invalid_verifications(), 10u);
}

TEST(Revocation, WorstCaseCostIsGammaPlusOnePerCode) {
  // The defence bound: a node verifies at most gamma+1 bad requests per
  // code before going deaf on it.
  const std::uint32_t gamma = 7;
  RevocationState state(gamma, three_codes());
  for (int i = 0; i < 100; ++i) (void)state.report_invalid(code_id(1));
  EXPECT_EQ(state.total_invalid_verifications(), gamma + 1u);
}

TEST(Revocation, UsableCodesTrackRandomReportAndRevokeSequences) {
  // Property: whatever sequence of report_invalid / revoke calls lands, the
  // incrementally maintained usable_codes() is ascending, holds no revoked
  // code, and equals a from-scratch filter of the held codes through an
  // independent model of the gamma rule.
  Rng rng(2011);
  for (int trial = 0; trial < 40; ++trial) {
    const auto gamma = static_cast<std::uint32_t>(rng.uniform(4));
    std::vector<CodeId> held;  // unsorted, possibly with duplicates
    for (std::uint64_t i = 0, n = 1 + rng.uniform(30); i < n; ++i) {
      held.push_back(code_id(static_cast<std::uint32_t>(rng.uniform(50))));
    }
    RevocationState state(gamma, held);
    std::map<CodeId, std::uint32_t> invalid;  // the model: per-code reports
    std::map<CodeId, bool> revoked;
    for (const CodeId c : held) revoked[c] = false;

    for (int step = 0; step < 120; ++step) {
      const CodeId c = held[rng.uniform(held.size())];
      if (rng.bernoulli(0.15)) {
        EXPECT_EQ(state.revoke(c), !revoked[c]);
        revoked[c] = true;
      } else if (rng.bernoulli(0.05)) {
        EXPECT_FALSE(state.revoke(code_id(1000)));  // never held
      } else {
        const bool crosses = !revoked[c] && ++invalid[c] > gamma;
        EXPECT_EQ(state.report_invalid(c), crosses);
        if (crosses) revoked[c] = true;
      }

      std::vector<CodeId> expected;  // std::map iterates in ascending order
      for (const auto& [code, is_revoked] : revoked) {
        if (!is_revoked) expected.push_back(code);
      }
      const std::vector<CodeId>& usable = state.usable_codes();
      ASSERT_TRUE(std::is_sorted(usable.begin(), usable.end()));
      for (const CodeId u : usable) ASSERT_FALSE(state.is_revoked(u));
      ASSERT_EQ(usable, expected) << "trial " << trial << " step " << step;
    }
  }
}

}  // namespace
}  // namespace jrsnd::predist
