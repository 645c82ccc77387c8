#include "oracle/fhss_reference.hpp"

#include <stdexcept>
#include <vector>

namespace jrsnd::oracle {

RandomHopSequence::RandomHopSequence(std::uint64_t seed, std::uint32_t channel_count)
    : seed_(seed), channels_(channel_count) {
  if (channel_count == 0) throw std::invalid_argument("RandomHopSequence: zero channels");
}

Channel RandomHopSequence::channel(std::uint64_t slot) const {
  // Stateless per-slot mixing keeps channel(t) O(1) for any t.
  std::uint64_t state = seed_ ^ (slot * 0x9e3779b97f4a7c15ULL);
  return static_cast<Channel>(splitmix64(state) % channels_);
}

FhssChannel::FhssChannel(std::uint32_t channel_count) : channels_(channel_count) {
  if (channel_count == 0) throw std::invalid_argument("FhssChannel: zero channels");
}

void FhssChannel::begin_slot() {
  slot_.clear();
  tx_count_ = 0;
  jam_count_ = 0;
}

void FhssChannel::transmit(TxId /*tx*/, Channel channel, std::uint64_t payload) {
  if (channel >= channels_) throw std::out_of_range("FhssChannel::transmit: bad channel");
  Occupancy& occ = slot_[channel];
  occ.payload = payload;
  ++occ.transmitters;
  ++tx_count_;
}

void FhssChannel::jam(Channel channel) {
  if (channel >= channels_) throw std::out_of_range("FhssChannel::jam: bad channel");
  Occupancy& occ = slot_[channel];
  if (!occ.jammed) {
    occ.jammed = true;
    ++jam_count_;
  }
}

void FhssChannel::jam_random(std::uint32_t count, Rng& rng) {
  if (count >= channels_) {
    for (Channel c = 0; c < channels_; ++c) jam(c);
    return;
  }
  for (const std::uint32_t c : rng.sample_without_replacement(channels_, count)) {
    jam(static_cast<Channel>(c));
  }
}

std::optional<std::uint64_t> FhssChannel::listen(Channel channel) const {
  const auto it = slot_.find(channel);
  if (it == slot_.end()) return std::nullopt;           // silence
  const Occupancy& occ = it->second;
  if (occ.jammed || occ.transmitters != 1) return std::nullopt;  // jam/collision
  return occ.payload;
}

UfhChannelExchange::UfhChannelExchange(const baselines::UfhParams& params, Rng& rng)
    : params_(params), rng_(rng) {
  if (params.channels == 0 || params.jammed_channels >= params.channels) {
    throw std::invalid_argument("UfhChannelExchange: need jammed_channels < channels");
  }
}

baselines::UfhExchange::Result UfhChannelExchange::run(
    const baselines::UfhFragmentChain& chain, std::uint64_t max_slots) {
  const auto& fragments = chain.fragments();
  // Fresh independent hop walks for sender and receiver each exchange.
  const RandomHopSequence tx_hops(rng_.next(), params_.channels);
  const RandomHopSequence rx_hops(rng_.next(), params_.channels);
  FhssChannel medium(params_.channels);

  baselines::UfhExchange::Result result;
  std::vector<bool> have(fragments.size(), false);
  std::size_t have_count = 0;
  std::vector<baselines::UfhFragmentChain::Fragment> received;

  for (std::uint64_t slot = 0; slot < max_slots && have_count < fragments.size(); ++slot) {
    ++result.slots;
    medium.begin_slot();
    const std::uint64_t fragment_index = slot % fragments.size();
    medium.transmit(/*tx=*/0, tx_hops.channel(slot), fragment_index + 1);
    medium.jam_random(params_.jammed_channels, rng_);
    const auto heard = medium.listen(rx_hops.channel(slot));
    if (!heard.has_value()) continue;
    ++result.fragments_heard;
    const std::size_t index = static_cast<std::size_t>(*heard - 1);
    if (!have[index]) {
      have[index] = true;
      ++have_count;
      received.push_back(fragments[index]);
    }
  }
  result.seconds = static_cast<double>(result.slots) * params_.slot_seconds;
  if (have_count == fragments.size()) {
    baselines::UfhParams check = params_;
    check.fragments = static_cast<std::uint32_t>(fragments.size());
    result.reassembled =
        baselines::UfhFragmentChain::reassemble(check, received).has_value();
  }
  return result;
}

}  // namespace jrsnd::oracle
