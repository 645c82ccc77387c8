// Channel-level reference for the UFH baseline (paper §II, ref [3]).
//
// baselines::UfhExchange models the uncoordinated-frequency-hopping
// bootstrap at slot-probability level. This is the same process re-run at
// channel level: a slotted hopping medium with collision and jamming
// semantics, independent random hop walks for sender and receiver, and
// fragment-chain reassembly. UfhChannelExchange.TransfersAndMatchesSlotModel
// holds the slot model to it the way ChipPhy holds AbstractPhy; production
// code never calls it.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "baselines/ufh.hpp"
#include "common/rng.hpp"

namespace jrsnd::oracle {

/// A channel index in [0, channel_count).
using Channel = std::uint32_t;

/// Identifies a transmitter within a slot.
using TxId = std::uint32_t;

/// Uncoordinated hop sequence: an independent pseudorandom walk from a seed
/// (the UFH sender/receiver strategy — public as a *strategy*, private as a
/// realization).
class RandomHopSequence {
 public:
  RandomHopSequence(std::uint64_t seed, std::uint32_t channel_count);

  /// The channel used during slot `slot`.
  [[nodiscard]] Channel channel(std::uint64_t slot) const;

 private:
  std::uint64_t seed_;
  std::uint32_t channels_;
};

/// Slotted frequency-hopping medium. In each slot every transmitter
/// occupies one channel and every receiver listens on one. A receiver
/// decodes a transmission iff it is alone on the transmitter's channel that
/// slot: two transmitters on one channel collide, and a jammer on the
/// channel destroys it too. The jammer gets `z` single-channel transmitters
/// per slot.
class FhssChannel {
 public:
  explicit FhssChannel(std::uint32_t channel_count);

  /// Begins a new slot (clears all per-slot occupancy).
  void begin_slot();

  /// Places transmitter `tx` on `channel` this slot (payload is an opaque
  /// id the receiver gets back on success).
  void transmit(TxId tx, Channel channel, std::uint64_t payload);

  /// The jammer burns one of its transmitters on `channel`.
  void jam(Channel channel);

  /// Jams `count` distinct channels chosen uniformly at random.
  void jam_random(std::uint32_t count, Rng& rng);

  /// What a receiver tuned to `channel` hears this slot: the payload if
  /// exactly one non-jammed transmission occupies the channel, nullopt on
  /// silence, collision, or jamming.
  [[nodiscard]] std::optional<std::uint64_t> listen(Channel channel) const;

  /// Diagnostics for the current slot.
  [[nodiscard]] std::size_t transmissions_this_slot() const noexcept { return tx_count_; }
  [[nodiscard]] std::size_t jammed_channels_this_slot() const noexcept { return jam_count_; }

 private:
  struct Occupancy {
    std::uint64_t payload = 0;
    std::uint32_t transmitters = 0;
    bool jammed = false;
  };

  std::uint32_t channels_;
  std::unordered_map<Channel, Occupancy> slot_;
  std::size_t tx_count_ = 0;
  std::size_t jam_count_ = 0;
};

/// UFH fragment-chain transfer at channel level (cf. baselines::UfhExchange,
/// which models the same process at slot-probability level).
class UfhChannelExchange {
 public:
  UfhChannelExchange(const baselines::UfhParams& params, Rng& rng);

  [[nodiscard]] baselines::UfhExchange::Result run(const baselines::UfhFragmentChain& chain,
                                                   std::uint64_t max_slots = 2000000);

 private:
  baselines::UfhParams params_;
  Rng& rng_;
};

}  // namespace jrsnd::oracle
