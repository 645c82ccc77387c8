#include "baselines/ufh.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace jrsnd::baselines {

namespace {

std::vector<std::uint8_t> fragment_bytes(const UfhFragmentChain::Fragment& fragment) {
  // Canonical serialization for the chain digests: index, payload, link.
  BitVector bv;
  bv.append_uint(fragment.index, 16);
  bv.append(fragment.payload);
  std::vector<std::uint8_t> out = bv.to_bytes();
  out.insert(out.end(), fragment.next_digest.begin(), fragment.next_digest.end());
  return out;
}

}  // namespace

UfhFragmentChain::UfhFragmentChain(const UfhParams& params, const BitVector& message) {
  if (params.fragments == 0) throw std::invalid_argument("UfhFragmentChain: zero fragments");
  const std::size_t per =
      (message.size() + params.fragments - 1) / params.fragments;
  if (per == 0) throw std::invalid_argument("UfhFragmentChain: empty message");

  fragments_.resize(params.fragments);
  for (std::uint32_t i = 0; i < params.fragments; ++i) {
    Fragment& f = fragments_[i];
    f.index = i;
    const std::size_t start = i * per;
    const std::size_t len = start >= message.size()
                                ? 0
                                : std::min(per, message.size() - start);
    f.payload = len == 0 ? BitVector(1) : message.slice(start, len);
  }
  // Link back to front: fragment i carries H(fragment_{i+1}).
  for (std::uint32_t i = params.fragments - 1; i-- > 0;) {
    fragments_[i].next_digest = digest_of(fragments_[i + 1]);
  }
}

crypto::Sha256Digest UfhFragmentChain::digest_of(const Fragment& fragment) {
  return crypto::Sha256::hash(fragment_bytes(fragment));
}

std::optional<BitVector> UfhFragmentChain::reassemble(const UfhParams& params,
                                                      const std::vector<Fragment>& received) {
  if (received.size() != params.fragments) return std::nullopt;
  std::vector<const Fragment*> ordered(params.fragments, nullptr);
  for (const Fragment& f : received) {
    if (f.index >= params.fragments || ordered[f.index] != nullptr) return std::nullopt;
    ordered[f.index] = &f;
  }
  // Verify the hash chain.
  for (std::uint32_t i = 0; i + 1 < params.fragments; ++i) {
    if (ordered[i]->next_digest != digest_of(*ordered[i + 1])) return std::nullopt;
  }
  BitVector message;
  for (const Fragment* f : ordered) message.append(f->payload);
  return message;
}

UfhExchange::UfhExchange(const UfhParams& params, Rng& rng) : params_(params), rng_(rng) {
  if (params.channels == 0 || params.jammed_channels >= params.channels) {
    throw std::invalid_argument("UfhExchange: need jammed_channels < channels");
  }
}

UfhExchange::Result UfhExchange::run(const UfhFragmentChain& chain, std::uint64_t max_slots) {
  Result result;
  const auto& fragments = chain.fragments();
  std::vector<bool> have(fragments.size(), false);
  std::size_t have_count = 0;
  std::vector<UfhFragmentChain::Fragment> received;

  for (std::uint64_t slot = 0; slot < max_slots && have_count < fragments.size(); ++slot) {
    ++result.slots;
    // Sender repeats fragments round-robin; both sides hop independently.
    const auto& fragment = fragments[slot % fragments.size()];
    const std::uint64_t tx_channel = rng_.uniform(params_.channels);
    const std::uint64_t rx_channel = rng_.uniform(params_.channels);
    if (tx_channel != rx_channel) continue;

    // The jammer blocks `jammed_channels` random channels this slot.
    bool jammed = false;
    for (std::uint32_t j = 0; j < params_.jammed_channels && !jammed; ++j) {
      jammed = rng_.uniform(params_.channels) == tx_channel;
    }
    if (jammed) continue;

    ++result.fragments_heard;
    if (!have[fragment.index]) {
      have[fragment.index] = true;
      ++have_count;
      received.push_back(fragment);
    }
  }
  result.seconds = static_cast<double>(result.slots) * params_.slot_seconds;
  if (have_count == fragments.size()) {
    UfhParams check = params_;
    check.fragments = static_cast<std::uint32_t>(fragments.size());
    result.reassembled = UfhFragmentChain::reassemble(check, received).has_value();
  }
  return result;
}

double UfhExchange::expected_slots_per_fragment() const noexcept {
  const double c = params_.channels;
  // P(coincide) = 1/c; P(not jammed | coincide) ~= (1 - 1/c)^z ~= 1 - z/c.
  const double p = (1.0 / c) * std::pow(1.0 - 1.0 / c, params_.jammed_channels);
  return 1.0 / p;
}

double UfhExchange::expected_transfer_seconds() const noexcept {
  // Coincidence slots are random, so each successful delivery carries a
  // ~uniformly random fragment of the round-robin rotation: collecting all
  // M distinct fragments is coupon collecting, ~ M * H_M deliveries, each
  // costing expected_slots_per_fragment() slots.
  const double m = params_.fragments;
  double harmonic = 0.0;
  for (std::uint32_t i = 1; i <= params_.fragments; ++i) harmonic += 1.0 / i;
  return expected_slots_per_fragment() * m * harmonic * params_.slot_seconds;
}

std::uint64_t ufh_dos_verifications(std::uint64_t insertions) noexcept { return insertions; }

}  // namespace jrsnd::baselines
