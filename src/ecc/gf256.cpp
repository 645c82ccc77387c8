#include "ecc/gf256.hpp"

#include <cassert>

namespace jrsnd::ecc {

GF256::Tables::Tables() noexcept {
  // Build alpha^i for i in [0, 255); duplicate the table so exp(i + j) for
  // i, j < 255 never needs a modulo.
  unsigned x = 1;  // stays below 0x200: reduced after every shift
  log_table[0] = -1;  // log(0) is undefined
  for (int i = 0; i < kGroupOrder; ++i) {
    exp_table[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
    log_table[static_cast<std::size_t>(x)] = i;
    x <<= 1;
    if (x & 0x100) x ^= kPrimitivePoly;
  }
  for (int i = kGroupOrder; i < 512; ++i) {
    exp_table[static_cast<std::size_t>(i)] =
        exp_table[static_cast<std::size_t>(i - kGroupOrder)];
  }
}

const GF256::Tables& GF256::tables() noexcept {
  static const Tables t;
  return t;
}

std::uint8_t GF256::mul(std::uint8_t a, std::uint8_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  const Tables& t = tables();
  return t.exp_table[static_cast<std::size_t>(t.log_table[a] + t.log_table[b])];
}

std::uint8_t GF256::inv(std::uint8_t a) noexcept {
  assert(a != 0);
  const Tables& t = tables();
  return t.exp_table[static_cast<std::size_t>(kGroupOrder - t.log_table[a])];
}

std::uint8_t GF256::div(std::uint8_t a, std::uint8_t b) noexcept {
  assert(b != 0);
  if (a == 0) return 0;
  const Tables& t = tables();
  int diff = t.log_table[a] - t.log_table[b];
  if (diff < 0) diff += kGroupOrder;
  return t.exp_table[static_cast<std::size_t>(diff)];
}

std::uint8_t GF256::exp(int power) noexcept {
  power %= kGroupOrder;
  if (power < 0) power += kGroupOrder;
  return tables().exp_table[static_cast<std::size_t>(power)];
}

int GF256::log(std::uint8_t a) noexcept {
  assert(a != 0);
  return tables().log_table[a];
}

std::uint8_t GF256::pow(std::uint8_t a, int power) noexcept {
  assert(power >= 0);
  if (power == 0) return 1;
  if (a == 0) return 0;
  const long long idx = (static_cast<long long>(log(a)) * power) % kGroupOrder;
  return tables().exp_table[static_cast<std::size_t>(idx)];
}

}  // namespace jrsnd::ecc
