#include "adversary/jammer.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_util.hpp"
#include "dsss/spreader.hpp"

namespace jrsnd::adversary {

RandomJammer::RandomJammer(const CompromiseModel& compromise, const JammerParams& params)
    : compromise_(compromise) {
  const double c = static_cast<double>(compromise.compromised_code_count());
  if (c <= 0.0) {
    beta_ = 0.0;
    beta_prime_ = 0.0;
    return;
  }
  // During one message, J can try z(1+mu)/mu distinct codes out of c.
  const double tries = static_cast<double>(params.z) * (1.0 + params.mu) / params.mu;
  beta_ = clamp01(tries / c);
  beta_prime_ = clamp01(3.0 * tries / c);
}

bool RandomJammer::jams(CodeId code, MessageClass cls, Rng& rng) const {
  // Session codes (not in the pool) and non-compromised codes are safe:
  // guessing an N-bit code is infeasible for a computationally bounded J.
  if (code == kInvalidCode || !compromise_.is_code_compromised(code)) return false;
  switch (cls) {
    case MessageClass::Hello:
      return rng.bernoulli(beta_);
    case MessageClass::Followup:
      return rng.bernoulli(beta_prime_);
    case MessageClass::SessionSpread:
      return false;  // session codes never reach the pool; handled above
  }
  return false;
}

ReactiveJammer::ReactiveJammer(const CompromiseModel& compromise, const JammerParams& /*params*/,
                               double identification_probability)
    : compromise_(compromise), ident_prob_(clamp01(identification_probability)) {}

bool ReactiveJammer::jams(CodeId code, MessageClass /*cls*/, Rng& rng) const {
  if (code == kInvalidCode || !compromise_.is_code_compromised(code)) return false;
  return rng.bernoulli(ident_prob_);
}

bool make_chip_jam_into(const dsss::SpreadCode& code, std::size_t victim_start,
                        std::size_t message_bits, double jam_fraction, Rng& rng,
                        double start_fraction, ChipJam& out) {
  const auto first_bit = static_cast<std::size_t>(
      clamp01(start_fraction) * static_cast<double>(message_bits));
  const auto covered_bits = std::min(
      message_bits - first_bit,
      static_cast<std::size_t>(
          std::ceil(clamp01(jam_fraction) * static_cast<double>(message_bits))));
  if (covered_bits == 0) return false;

  // Jammer payload: random bits spread with the victim's code, chip-synced
  // with the victim's covered bits.
  out.payload.assign_words(covered_bits, [&](std::span<std::uint64_t> words) {
    rng.fill_coins(words, covered_bits);
  });
  dsss::spread_into(out.payload, code, out.flipped, out.chips);
  out.start_chip = victim_start + first_bit * code.length();
  return true;
}

std::vector<dsss::Transmission> make_chip_jamming(const dsss::SpreadCode& code,
                                                  std::size_t victim_start,
                                                  std::size_t message_bits, double jam_fraction,
                                                  std::uint32_t parallel_signals, Rng& rng,
                                                  double start_fraction) {
  std::vector<dsss::Transmission> out;
  ChipJam jam;
  if (parallel_signals == 0 ||
      !make_chip_jam_into(code, victim_start, message_bits, jam_fraction, rng, start_fraction,
                          jam)) {
    return out;
  }
  out.assign(parallel_signals, dsss::Transmission{jam.start_chip, jam.chips});
  return out;
}

}  // namespace jrsnd::adversary
