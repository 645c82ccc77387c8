// Deterministic, splittable random number generation.
//
// Every stochastic decision in the simulator — code pre-distribution,
// node placement, jammer code guesses, nonce generation in examples — draws
// from an Rng seeded from the experiment seed, so each of the paper's "100
// simulation runs, each with a different random seed" is exactly
// reproducible. The engine is xoshiro256**, seeded via splitmix64.
#pragma once

#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace jrsnd {

/// splitmix64 step; used for seeding and for cheap stateless mixing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** generator with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator, so it also plugs into <random>
/// distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from `seed` (any value, including 0).
  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Raw 64 random bits.
  result_type operator()() noexcept { return next(); }
  /// The xoshiro256** step. Inline: the chip channel draws one per silent
  /// chip.
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// `bits` fair coins packed into `words`, MSB-first within each word as
  /// BitVector lays them out: coin i is 1 when the i-th next() has its top
  /// bit clear. That is exactly bernoulli(0.5) — uniform01() is below 0.5
  /// iff bit 63 of next() is 0 — so the coins and the stream left behind
  /// are those of `bits` bernoulli(0.5) draws in order. Bits past `bits` in
  /// the last word written are zero; later words are untouched.
  /// Precondition: words.size() * 64 >= bits.
  void fill_coins(std::span<std::uint64_t> words, std::size_t bits) noexcept;

  /// Exponentially distributed value with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Fisher-Yates shuffle of an entire span.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// k distinct values sampled uniformly from [0, population), in random
  /// order. Precondition: k <= population. Uses Floyd's algorithm, O(k).
  [[nodiscard]] std::vector<std::uint32_t> sample_without_replacement(
      std::uint32_t population, std::uint32_t k);

  /// Derives an independent child generator; the child stream does not
  /// overlap the parent's for any practical draw count. Used to give each
  /// simulation run / node / subsystem its own stream.
  [[nodiscard]] Rng split() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace jrsnd
