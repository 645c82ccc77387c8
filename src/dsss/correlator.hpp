// Correlation decision support (paper §III).
//
// For pseudorandom codes of length N, the correlation of a code with an
// unrelated chip window is a sum of N iid +-1/N terms: mean 0, variance 1/N.
// The threshold tau must sit far enough above that noise floor that false
// synchronization is negligible, yet low enough that legitimate bits decode.
// The paper (after [7]) uses tau = 0.15 at N = 512, about 3.4 sigma.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jrsnd::dsss {

/// Default decision threshold from the paper for N = 512.
inline constexpr double kDefaultTau = 0.15;

/// The one normalized-correlation formula every packed-chip path shares:
/// (N - 2h) / N for Hamming distance h over N chips. Centralized so the
/// single-code kernel, the SIMD-batched kernel, and the despread decision
/// paths are bit-identical doubles by construction, not by convention.
[[nodiscard]] constexpr double correlation_from_hamming(std::size_t code_length,
                                                        std::size_t hamming) noexcept {
  const auto n = static_cast<double>(code_length);
  const auto h = static_cast<double>(hamming);
  return (n - 2.0 * h) / n;
}

/// The threshold test translated into the Hamming domain: |corr(h)| >= tau
/// ⟺ h < hit_below || h >= hit_from. correlation_from_hamming is decreasing
/// in h (and its rounding is monotone), so the h passing the positive test
/// form a prefix and those passing the negative test a suffix; the bounds
/// are found with the SAME double-precision predicate the per-code path
/// evaluates, so integer compares against them are exactly equivalent
/// (including rounding at the boundary) while skipping the int->double
/// conversions and the division per window.
struct HammingBounds {
  std::size_t hit_below = 0;  ///< h < hit_below  ⇒  corr >= tau
  std::size_t hit_from = 0;   ///< h >= hit_from  ⇒  corr <= -tau

  /// Bit 63 is set iff h is past the bounds: h - hit_below wraps when h is
  /// below them and hit_from - 1 - h when h is at or above hit_from, and
  /// both stay far below 2^63 otherwise. ORed over many lanes, one test of
  /// bit 63 answers "did any lane hit".
  [[nodiscard]] constexpr std::uint64_t past(std::uint64_t h) const noexcept {
    return (h - hit_below) | (hit_from - 1 - h);
  }
};

/// The bounds for codes of `code_length` chips at threshold `tau` (two
/// binary searches over h in [0, N]).
[[nodiscard]] HammingBounds hamming_bounds(std::size_t code_length, double tau);

/// Standard deviation of the correlation between a length-N pseudorandom
/// code and an independent window: sqrt(1/N).
[[nodiscard]] double correlation_noise_sigma(std::size_t code_length);

/// A threshold placed `sigmas` standard deviations above the noise floor.
[[nodiscard]] double recommended_tau(std::size_t code_length, double sigmas = 3.4);

/// Probability that an unrelated window exceeds tau in absolute value
/// (two-sided Gaussian tail) — the per-position false-sync probability of
/// the sliding-window search.
[[nodiscard]] double false_sync_probability(std::size_t code_length, double tau);

}  // namespace jrsnd::dsss
