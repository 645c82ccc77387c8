#include "dsss/spread_code.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dsss/correlator.hpp"
#include "oracle/dsss_models.hpp"

namespace jrsnd::dsss {
namespace {

using oracle::autocorrelation_profile;
using oracle::CorrelationProfile;
using oracle::max_cross_correlation;

TEST(SpreadCode, RejectsEmptyPattern) {
  EXPECT_THROW((void)SpreadCode{BitVector()}, std::invalid_argument);
}

TEST(SpreadCode, ChipMapping) {
  const SpreadCode code(BitVector::from_string("1010"));
  EXPECT_EQ(code.length(), 4u);
  EXPECT_EQ(code.chip(0), +1);
  EXPECT_EQ(code.chip(1), -1);
  EXPECT_EQ(code.chip(2), +1);
  EXPECT_EQ(code.chip(3), -1);
}

TEST(SpreadCode, SelfCorrelationIsOne) {
  Rng rng(1);
  const SpreadCode code = SpreadCode::random(rng, 512);
  EXPECT_DOUBLE_EQ(code.correlate(code.bits()), 1.0);
}

TEST(SpreadCode, InvertedCorrelationIsMinusOne) {
  Rng rng(2);
  const SpreadCode code = SpreadCode::random(rng, 512);
  BitVector inverted = code.bits();
  for (std::size_t i = 0; i < inverted.size(); ++i) inverted.flip(i);
  EXPECT_DOUBLE_EQ(code.correlate(inverted), -1.0);
}

TEST(SpreadCode, CrossCorrelationOfRandomCodesIsSmall) {
  // The paper's negligible-interference assumption for large N.
  Rng rng(3);
  const SpreadCode a = SpreadCode::random(rng, 512);
  for (int trial = 0; trial < 50; ++trial) {
    const SpreadCode b = SpreadCode::random(rng, 512);
    // |corr| beyond ~5 sigma = 5/sqrt(512) ~ 0.22 is astronomically rare.
    EXPECT_LT(std::abs(a.correlate(b.bits())), 0.25) << "trial " << trial;
  }
}

TEST(SpreadCode, CorrelationCountsMatchingChips) {
  const SpreadCode code(BitVector::from_string("11110000"));
  // Window differing in 2 of 8 chips: corr = (8 - 2*2)/8 = 0.5.
  const BitVector window = BitVector::from_string("11010001");
  EXPECT_DOUBLE_EQ(code.correlate(window), (8.0 - 2.0 * 2.0) / 8.0);
}

TEST(SpreadCode, MismatchedWindowThrows) {
  Rng rng(4);
  const SpreadCode code = SpreadCode::random(rng, 64);
  EXPECT_THROW((void)code.correlate(BitVector(63)), std::invalid_argument);
}

TEST(SpreadCode, RandomCodesAreBalanced) {
  Rng rng(5);
  const SpreadCode code = SpreadCode::random(rng, 4096);
  const double ones = static_cast<double>(code.bits().popcount()) / 4096.0;
  EXPECT_GT(ones, 0.45);
  EXPECT_LT(ones, 0.55);
}

TEST(SpreadCode, IdIsCarried) {
  Rng rng(6);
  const SpreadCode code = SpreadCode::random(rng, 32, code_id(17));
  EXPECT_EQ(code.id(), code_id(17));
}


TEST(Correlator, AutocorrelationProfileOfRandomCode) {
  // Random codes: unit peak, off-peak shifts near the 1/sqrt(N) noise
  // floor — the property sliding-window synchronization rests on.
  Rng rng(21);
  const SpreadCode code = SpreadCode::random(rng, 512);
  const CorrelationProfile profile = autocorrelation_profile(code);
  EXPECT_DOUBLE_EQ(profile.peak, 1.0);
  EXPECT_LT(profile.max_off_peak, 6.0 * correlation_noise_sigma(512));
  EXPECT_LT(profile.mean_abs_off_peak, 1.5 * correlation_noise_sigma(512));
}

TEST(Correlator, DegenerateCodeHasTerribleProfile) {
  // An all-ones "code" is its own cyclic shift: off-peak correlation 1.
  const SpreadCode constant(BitVector::from_string("11111111"));
  const CorrelationProfile profile = autocorrelation_profile(constant);
  EXPECT_DOUBLE_EQ(profile.max_off_peak, 1.0);
}

TEST(Correlator, CrossCorrelationOfIndependentCodesIsLow) {
  Rng rng(22);
  const SpreadCode a = SpreadCode::random(rng, 256);
  const SpreadCode b = SpreadCode::random(rng, 256);
  // Max over 256 shifts of a ~N(0, 1/256) variable: expect < ~4.5 sigma.
  EXPECT_LT(max_cross_correlation(a, b), 4.5 * correlation_noise_sigma(256));
  // And a code against itself peaks at exactly 1 (shift 0).
  EXPECT_DOUBLE_EQ(max_cross_correlation(a, a), 1.0);
}

TEST(Correlator, SigmaMatchesTheory) {
  EXPECT_NEAR(correlation_noise_sigma(512), 1.0 / std::sqrt(512.0), 1e-12);
  EXPECT_DOUBLE_EQ(correlation_noise_sigma(1), 1.0);
}

TEST(Correlator, PaperTauIsAboveNoiseFloor) {
  // tau = 0.15 at N = 512 is ~3.4 sigma (paper after [7]).
  const double sigma = correlation_noise_sigma(512);
  EXPECT_NEAR(kDefaultTau / sigma, 3.39, 0.1);
  EXPECT_NEAR(recommended_tau(512), 0.15, 0.01);
}

TEST(Correlator, FalseSyncProbabilityIsTiny) {
  const double p = false_sync_probability(512, kDefaultTau);
  EXPECT_LT(p, 1e-3);
  EXPECT_GT(p, 1e-5);
}

TEST(Correlator, FalseSyncProbabilityDecreasesWithN) {
  EXPECT_GT(false_sync_probability(128, 0.15), false_sync_probability(512, 0.15));
  EXPECT_GT(false_sync_probability(512, 0.15), false_sync_probability(2048, 0.15));
}

TEST(Correlator, EmpiricalFalseSyncRateMatchesModel) {
  Rng rng(7);
  const std::size_t n = 256;
  const double tau = 0.2;
  const SpreadCode code = SpreadCode::random(rng, n);
  int hits = 0;
  constexpr int kTrials = 5000;
  for (int t = 0; t < kTrials; ++t) {
    BitVector noise(n);
    for (std::size_t i = 0; i < n; ++i) noise.set(i, rng.bernoulli(0.5));
    if (std::abs(code.correlate(noise)) >= tau) ++hits;
  }
  const double empirical = static_cast<double>(hits) / kTrials;
  const double model = false_sync_probability(n, tau);
  EXPECT_NEAR(empirical, model, 3.0 * std::sqrt(model / kTrials) + 0.002);
}

}  // namespace
}  // namespace jrsnd::dsss
