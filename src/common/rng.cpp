#include "common/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace jrsnd {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro requires a nonzero state; splitmix64 makes all-zero output
  // astronomically unlikely, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  // range == 0 means the full 64-bit span [lo, hi]; return raw bits then.
  if (range == 0) return static_cast<std::int64_t>(next());
  return lo + static_cast<std::int64_t>(uniform(range));
}

double Rng::uniform01() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

void Rng::fill_coins(std::span<std::uint64_t> words, std::size_t bits) noexcept {
  assert(words.size() * 64 >= bits);
  for (std::size_t w = 0; w * 64 < bits; ++w) {
    const std::size_t take = std::min<std::size_t>(64, bits - w * 64);
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < take; ++i) word = (word << 1) | (~next() >> 63);
    words[w] = word << (64 - take);
  }
}

double Rng::exponential(double rate) noexcept {
  assert(rate > 0.0);
  // -log(1 - U) with U in [0,1); 1-U in (0,1] avoids log(0).
  return -std::log1p(-uniform01()) / rate;
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t population,
                                                           std::uint32_t k) {
  assert(k <= population);
  // Floyd's algorithm: for j in [population-k, population), pick t uniform in
  // [0, j]; insert t unless already present, else insert j.
  std::unordered_set<std::uint32_t> chosen;
  std::vector<std::uint32_t> result;
  chosen.reserve(k);
  result.reserve(k);
  for (std::uint32_t j = population - k; j < population; ++j) {
    const auto t = static_cast<std::uint32_t>(uniform(j + 1));
    if (chosen.insert(t).second) {
      result.push_back(t);
    } else {
      chosen.insert(j);
      result.push_back(j);
    }
  }
  // Floyd's output has a position bias; shuffle to make order uniform too.
  shuffle(std::span<std::uint32_t>(result));
  return result;
}

Rng Rng::split() noexcept {
  // Derive a child seed from fresh parent output; the parent advances, so
  // successive splits yield independent streams.
  return Rng(next() ^ 0xa5a5a5a55a5a5a5aULL);
}

}  // namespace jrsnd
