#include "adversary/compromise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/math_util.hpp"
#include "predist/authority.hpp"

namespace jrsnd::adversary {
namespace {

predist::CodePoolAuthority make_authority(std::uint64_t seed) {
  predist::PredistParams p;
  p.node_count = 200;
  p.codes_per_node = 10;
  p.holders_per_code = 8;
  p.code_length_chips = 32;
  return predist::CodePoolAuthority(p, Rng(seed));
}

TEST(Compromise, ExactlyQNodesCompromised) {
  const auto authority = make_authority(1);
  Rng rng(2);
  const CompromiseModel model(authority.assignment(), 15, rng);
  EXPECT_EQ(model.compromised_node_count(), 15u);
  EXPECT_EQ(model.compromised_nodes().size(), 15u);
}

TEST(Compromise, ZeroCompromiseLeaksNothing) {
  const auto authority = make_authority(2);
  Rng rng(3);
  const CompromiseModel model(authority.assignment(), 0, rng);
  EXPECT_EQ(model.compromised_node_count(), 0u);
  EXPECT_EQ(model.compromised_code_count(), 0u);
  EXPECT_FALSE(model.is_node_compromised(node_id(0)));
  EXPECT_FALSE(model.is_code_compromised(code_id(0)));
}

TEST(Compromise, QExceedingNThrows) {
  const auto authority = make_authority(3);
  Rng rng(4);
  EXPECT_THROW(CompromiseModel(authority.assignment(), 201, rng), std::invalid_argument);
}

TEST(Compromise, CompromisedCodesAreUnionOfCapturedSets) {
  const auto authority = make_authority(4);
  Rng rng(5);
  const CompromiseModel model(authority.assignment(), 5, rng);
  // Every code held by a compromised node must be compromised...
  for (const NodeId node : model.compromised_nodes()) {
    for (const CodeId code : authority.assignment().codes_of(node)) {
      EXPECT_TRUE(model.is_code_compromised(code));
    }
  }
  // ...and every compromised code must trace back to a compromised holder.
  for (const CodeId code : model.compromised_codes()) {
    bool held = false;
    for (const NodeId holder : authority.assignment().holders_of(code)) {
      held |= model.is_node_compromised(holder);
    }
    EXPECT_TRUE(held);
  }
}

TEST(Compromise, FullCompromiseLeaksEverything) {
  const auto authority = make_authority(5);
  Rng rng(6);
  const CompromiseModel model(authority.assignment(), 200, rng);
  EXPECT_EQ(model.compromised_code_count(), authority.pool_size());
}

TEST(Compromise, CodeCountMatchesEq2Expectation) {
  // Average c over trials should approach s * alpha (Eq. 2).
  const auto authority = make_authority(6);
  const std::uint32_t q = 20;
  const double alpha = code_compromise_probability(200, 8, q);
  const double expected = static_cast<double>(authority.pool_size()) * alpha;
  double total = 0.0;
  constexpr int kTrials = 50;
  Rng rng(7);
  for (int t = 0; t < kTrials; ++t) {
    const CompromiseModel model(authority.assignment(), q, rng);
    total += static_cast<double>(model.compromised_code_count());
  }
  EXPECT_NEAR(total / kTrials, expected, expected * 0.05);
}

TEST(Compromise, DeterministicGivenRngState) {
  const auto authority = make_authority(7);
  Rng rng1(8);
  Rng rng2(8);
  const CompromiseModel m1(authority.assignment(), 10, rng1);
  const CompromiseModel m2(authority.assignment(), 10, rng2);
  EXPECT_EQ(m1.compromised_nodes(), m2.compromised_nodes());
  EXPECT_EQ(m1.compromised_codes(), m2.compromised_codes());
}

// The bitset lookup must answer as a binary search over the sorted list
// does: for every pool id, one id past the pool and kInvalidCode, from no
// compromise through a full one.
TEST(Compromise, CodeLookupMatchesBinarySearch) {
  const auto authority = make_authority(8);
  Rng rng(9);
  for (const std::uint32_t q : {0u, 1u, 5u, 20u, 120u, 200u}) {
    const CompromiseModel model(authority.assignment(), q, rng);
    const std::vector<CodeId> codes = model.compromised_codes();
    const auto pool = static_cast<std::uint32_t>(authority.pool_size());
    std::vector<CodeId> probes;
    for (std::uint32_t c = 0; c <= pool; ++c) probes.push_back(code_id(c));
    probes.push_back(kInvalidCode);
    for (const CodeId code : probes) {
      EXPECT_EQ(model.is_code_compromised(code),
                std::binary_search(codes.begin(), codes.end(), code))
          << "q=" << q << " code=" << raw(code);
    }
    EXPECT_FALSE(model.is_code_compromised(code_id(pool)));
    EXPECT_FALSE(model.is_code_compromised(kInvalidCode));
  }
}

}  // namespace
}  // namespace jrsnd::adversary
