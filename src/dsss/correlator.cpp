#include "dsss/correlator.hpp"

#include <cassert>
#include <cmath>

namespace jrsnd::dsss {

namespace {

/// The first h in [0, n + 1) for which `passes` is false, given that the
/// passing h form a prefix (n + 1 when every h passes).
template <typename Pred>
std::size_t first_failing(std::size_t n, Pred passes) {
  std::size_t lo = 0;
  std::size_t hi = n + 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

HammingBounds hamming_bounds(std::size_t code_length, double tau) {
  HammingBounds b;
  b.hit_below = first_failing(
      code_length, [&](std::size_t h) { return correlation_from_hamming(code_length, h) >= tau; });
  b.hit_from = first_failing(
      code_length, [&](std::size_t h) { return correlation_from_hamming(code_length, h) > -tau; });
  return b;
}

double correlation_noise_sigma(std::size_t code_length) {
  assert(code_length > 0);
  return 1.0 / std::sqrt(static_cast<double>(code_length));
}

double recommended_tau(std::size_t code_length, double sigmas) {
  return sigmas * correlation_noise_sigma(code_length);
}

double false_sync_probability(std::size_t code_length, double tau) {
  const double sigma = correlation_noise_sigma(code_length);
  // Two-sided tail: P(|corr| >= tau) = erfc(tau / (sigma * sqrt(2))).
  return std::erfc(tau / (sigma * std::sqrt(2.0)));
}

}  // namespace jrsnd::dsss
