// Pseudorandom DSSS spread codes (paper §III).
//
// A spread code is an N-chip NRZ sequence of +1/-1 values. We store chips
// packed in a BitVector (bit 1 <-> chip +1, bit 0 <-> chip -1) so that the
// correlation between two length-N sequences reduces to
//     corr = (N - 2 * hamming) / N,
// computable with XOR + popcount at word granularity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/bit_vector.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace jrsnd::dsss {

class SpreadCode {
 public:
  /// Wraps an explicit chip pattern.
  explicit SpreadCode(BitVector chips, CodeId id = kInvalidCode);

  /// A fresh pseudorandom code of `length` chips.
  static SpreadCode random(Rng& rng, std::size_t length, CodeId id = kInvalidCode);

  [[nodiscard]] std::size_t length() const noexcept { return chips_.size(); }
  [[nodiscard]] CodeId id() const noexcept { return id_; }

  /// Chip value at `index`: +1 or -1.
  [[nodiscard]] int chip(std::size_t index) const { return chips_.get(index) ? +1 : -1; }

  /// Packed chip pattern (bit 1 <-> +1).
  [[nodiscard]] const BitVector& bits() const noexcept { return chips_; }

  /// Replaces the chip pattern (same rule as the constructor), reusing this
  /// code's storage: allocation-free once it has held a pattern as long.
  void assign(const BitVector& chips);

  /// Normalized correlation with a same-length packed chip window, in
  /// [-1, +1]: +1 for identical, -1 for inverted.
  [[nodiscard]] double correlate(const BitVector& window) const;

  bool operator==(const SpreadCode& other) const noexcept { return chips_ == other.chips_; }

 private:
  BitVector chips_;
  CodeId id_;
};

/// True when every code shares codes[0].length() (vacuously for an empty
/// span): the scan slides one window at one stride, so this is the
/// candidate-pool precondition of every sliding-window entry point.
[[nodiscard]] bool uniform_code_lengths(std::span<const SpreadCode> codes) noexcept;

}  // namespace jrsnd::dsss
