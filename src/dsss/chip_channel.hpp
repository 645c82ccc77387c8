// Chip-level wireless channel with jamming superposition (paper §§III-IV).
//
// Concurrent transmissions add in the air: each active transmitter
// contributes +1 or -1 per chip, and the receiver's demodulator makes a hard
// sign decision per chip (ties and silent chips resolve to random chips —
// thermal noise). A jammer that transmits the *same* spread code in sync
// therefore cancels or corrupts chips and drives the per-bit correlation
// below tau; a jammer using a different pseudorandom code just adds
// uncorrelated chips that shrink correlation magnitude by a factor the
// despreader tolerates (the paper's negligible-interference assumption for
// large N).
//
// Representation: bit-sliced per-chip counters. For every 64-chip word the
// window keeps K bit-planes counting the chip's +1 contributions (P) and K
// counting its -1 contributions (M), MSB-first within each word as in
// BitVector, where K = bit_width(signals added) grows on demand — so any
// number of superposed signals stays exact. add() ripple-carries one
// shifted source word into the planes per destination word (a single XOR
// per side while K = 1); receive() compares P and M MSB-plane first, a word
// at a time: P > M is chip 1, P < M chip 0, and P = M (a tie, or silence)
// is thermal noise.
//
// Rng order: every P = M chip takes one draw, in chip order, and becomes 1
// when the draw's top bit is clear. That is exactly rng.bernoulli(0.5) —
// uniform01() is (next() >> 11) * 2^-53, which is below 0.5 iff bit 63 of
// next() is 0 — so the received chips and the Rng stream are those of the
// per-chip soft-sum channel (tests/oracle: ReferenceChipChannel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bit_vector.hpp"
#include "common/rng.hpp"

namespace jrsnd::dsss {

/// One on-air transmission: a chip pattern placed at an absolute chip offset.
struct Transmission {
  std::size_t start_chip = 0;
  BitVector chips;  ///< packed +-1 chips (bit 1 <-> +1)
};

class ChipChannel {
 public:
  /// An empty window; reset() before use.
  ChipChannel() = default;

  /// A channel observation window of `duration_chips` chips.
  explicit ChipChannel(std::size_t duration_chips) { reset(duration_chips); }

  [[nodiscard]] std::size_t duration() const noexcept { return duration_; }

  /// Returns the window to silence at a (possibly new) duration, reusing the
  /// existing storage — the per-transmit reset of the scratch arena. Does not
  /// allocate once capacity covers `duration_chips` (see reserve()).
  void reset(std::size_t duration_chips);

  /// Grows capacity so later reset() calls up to `duration_chips`, followed
  /// by up to `signals` add()s, are allocation-free.
  void reserve(std::size_t duration_chips, std::size_t signals = 1);

  /// Superposes a transmission; parts outside the window are clipped.
  void add(const Transmission& tx) { add(tx.start_chip, tx.chips); }

  /// Same, without requiring the chips to be wrapped (and copied) into a
  /// Transmission. Reads the pattern's packed words directly.
  void add(std::size_t start_chip, const BitVector& chips);

  /// Per-chip sums of all contributions (no receiver decision applied),
  /// computed from the planes on each call — an observer for tests.
  [[nodiscard]] const std::vector<int>& soft() const;

  /// Chips that carry at least one transmission (1) vs. silence (0),
  /// computed from the planes on each call.
  [[nodiscard]] const std::vector<std::uint8_t>& active() const;

  /// Hard sign decision per chip: positive sum -> 1, negative -> 0, zero sum
  /// (tie or silence) -> random. Deterministic given the rng state.
  [[nodiscard]] BitVector receive(Rng& rng) const;

  /// receive() into a caller-owned buffer (cleared and refilled). Identical
  /// bits and identical rng draws; allocation-free once the buffer's
  /// capacity covers duration().
  void receive_into(Rng& rng, BitVector& out) const;

 private:
  std::size_t duration_ = 0;
  std::size_t nwords_ = 0;   ///< 64-chip words in the window
  std::size_t signals_ = 0;  ///< add()s that reached the window
  std::size_t planes_ = 0;   ///< K: bit-planes per side

  // Plane k of word w at [k * nwords_ + w]: bit k of the chip's count of +1
  // (plus_) or -1 (minus_) contributions.
  std::vector<std::uint64_t> plus_;
  std::vector<std::uint64_t> minus_;
  // add()'s realigned pattern: the carries rippling up each side's planes.
  std::vector<std::uint64_t> plus_carry_;
  std::vector<std::uint64_t> minus_carry_;

  // receive()'s per-word tie lanes (P = M on every plane so far).
  mutable std::vector<std::uint64_t> ties_;
  // The observer views (soft(), active()), rebuilt on each call.
  mutable std::vector<int> soft_;
  mutable std::vector<std::uint8_t> active_;
};

}  // namespace jrsnd::dsss
