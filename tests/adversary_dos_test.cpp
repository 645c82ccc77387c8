#include "adversary/dos_attacker.hpp"

#include <gtest/gtest.h>

#include "adversary/compromise.hpp"
#include "baselines/public_code_set.hpp"
#include "predist/authority.hpp"

namespace jrsnd::adversary {
namespace {

predist::CodePoolAuthority make_authority(std::uint64_t seed) {
  predist::PredistParams p;
  p.node_count = 100;
  p.codes_per_node = 10;
  p.holders_per_code = 5;
  p.code_length_chips = 32;
  return predist::CodePoolAuthority(p, Rng(seed));
}

TEST(DosCampaign, VerificationsAreBoundedByGamma) {
  const auto authority = make_authority(1);
  Rng rng(2);
  const CompromiseModel compromise(authority.assignment(), 3, rng);
  const auto codes = compromise.compromised_codes();
  const auto nodes = compromise.compromised_nodes();

  const std::uint32_t gamma = 5;
  DosCampaign campaign(authority.assignment(), codes, nodes, gamma, 35.5e-3);
  // Flood far beyond the bound.
  const DosCampaignResult result = campaign.run(10000);
  EXPECT_LE(result.verifications, campaign.total_verification_bound());
  EXPECT_GT(result.requests_ignored, 0u);
  EXPECT_GT(result.revocations, 0u);
}

TEST(DosCampaign, BoundIsTightWhenFloodLargeEnough) {
  const auto authority = make_authority(2);
  Rng rng(3);
  const CompromiseModel compromise(authority.assignment(), 2, rng);
  DosCampaign campaign(authority.assignment(), compromise.compromised_codes(),
                       compromise.compromised_nodes(), 4, 35.5e-3);
  const DosCampaignResult result = campaign.run(1000);
  // Every victim of every code performs exactly gamma + 1 verifications.
  EXPECT_EQ(result.verifications, campaign.total_verification_bound());
}

TEST(DosCampaign, SmallFloodCostsLinear) {
  const auto authority = make_authority(3);
  Rng rng(4);
  const CompromiseModel compromise(authority.assignment(), 2, rng);
  const auto codes = compromise.compromised_codes();
  DosCampaign campaign(authority.assignment(), codes, compromise.compromised_nodes(), 50,
                       35.5e-3);
  const DosCampaignResult result = campaign.run(2);
  // 2 requests per code, each verified by every (non-compromised) holder.
  EXPECT_EQ(result.requests_sent, 2u * codes.size());
  EXPECT_EQ(result.revocations, 0u);  // gamma = 50 not reached
  EXPECT_EQ(result.requests_ignored, 0u);
}

TEST(DosCampaign, PerCodeBoundMatchesHolderCount) {
  const auto authority = make_authority(4);
  Rng rng(5);
  const CompromiseModel compromise(authority.assignment(), 1, rng);
  const auto codes = compromise.compromised_codes();
  const std::uint32_t gamma = 7;
  DosCampaign campaign(authority.assignment(), codes, compromise.compromised_nodes(), gamma,
                       35.5e-3);
  for (const CodeId code : codes) {
    std::size_t victims = 0;
    for (const NodeId holder : authority.assignment().holders_of(code)) {
      victims += !compromise.is_node_compromised(holder);
    }
    EXPECT_EQ(campaign.per_code_verification_bound(code), victims * (gamma + 1));
  }
}

TEST(DosCampaign, VerificationTimeUsesTver) {
  const auto authority = make_authority(5);
  Rng rng(6);
  const CompromiseModel compromise(authority.assignment(), 1, rng);
  const double t_ver = 35.5e-3;
  DosCampaign campaign(authority.assignment(), compromise.compromised_codes(),
                       compromise.compromised_nodes(), 3, t_ver);
  const DosCampaignResult result = campaign.run(100);
  EXPECT_NEAR(result.verification_time_s,
              static_cast<double>(result.verifications) * t_ver, 1e-9);
}

TEST(DosCampaign, FloodPastRevocationChargesEveryRequestToEveryVictim) {
  const auto authority = make_authority(9);
  Rng rng(10);
  const CompromiseModel compromise(authority.assignment(), 3, rng);
  const auto codes = compromise.compromised_codes();
  const std::uint32_t gamma = 2;
  DosCampaign campaign(authority.assignment(), codes, compromise.compromised_nodes(), gamma,
                       35.5e-3);
  std::uint64_t attacked = 0;
  for (const CodeId code : codes) attacked += campaign.per_code_verification_bound(code) > 0;
  const std::uint64_t victim_slots = campaign.total_verification_bound() / (gamma + 1);
  const std::uint64_t flood = 50;  // every victim revokes after gamma + 1
  const DosCampaignResult result = campaign.run(flood);
  EXPECT_EQ(result.requests_sent, flood * attacked);
  EXPECT_EQ(result.verifications, campaign.total_verification_bound());
  EXPECT_EQ(result.revocations, victim_slots);
  EXPECT_EQ(result.verifications + result.requests_ignored, flood * victim_slots);
}

TEST(DosCampaign, NoCompromisedCodesNoCost) {
  const auto authority = make_authority(6);
  DosCampaign campaign(authority.assignment(), {}, {}, 5, 35.5e-3);
  const DosCampaignResult result = campaign.run(1000);
  EXPECT_EQ(result.verifications, 0u);
  EXPECT_EQ(result.requests_sent, 0u);
}

TEST(DosCampaign, PublicCodeSetBaselineIsUnbounded) {
  // The contrast the paper draws in §V-D: same flood, no cap.
  const std::uint64_t injected = 100000;
  const std::uint64_t receivers = 20;
  EXPECT_EQ(baselines::PublicCodeSetScheme::dos_verifications(injected, receivers),
            injected * receivers);

  // JR-SND with the same flood: capped regardless of the attacker's budget.
  const auto authority = make_authority(7);
  Rng rng(8);
  const CompromiseModel compromise(authority.assignment(), 3, rng);
  DosCampaign campaign(authority.assignment(), compromise.compromised_codes(),
                       compromise.compromised_nodes(), 10, 35.5e-3);
  const DosCampaignResult result = campaign.run(injected);
  EXPECT_LT(result.verifications, injected);  // many orders of magnitude less
}

}  // namespace
}  // namespace jrsnd::adversary
