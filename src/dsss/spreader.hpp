// Spreading and de-spreading (paper §III).
//
// The sender NRZ-encodes the message (bit 0 -> -1, bit 1 -> +1) and
// multiplies every message bit by the N-chip spread code, yielding the chip
// sequence. The receiver correlates each N-chip window against the code:
// correlation above tau decodes as 1, below -tau as -1 (0), and anything in
// (-tau, tau) is marked an *erasure* and handed to the Reed-Solomon errata
// decoder (src/ecc).
#pragma once

#include <cstddef>
#include <vector>

#include "common/bit_vector.hpp"
#include "dsss/spread_code.hpp"

namespace jrsnd::dsss {

class BatchShiftTable;  // dsss/sync_kernel.hpp

/// Spreads `message` with `code`: output has message.size() * N chips,
/// packed as bits (bit 1 <-> chip +1).
[[nodiscard]] BitVector spread(const BitVector& message, const SpreadCode& code);

/// spread() into caller-owned buffers (both cleared and refilled).
/// `flipped_scratch` holds the inverted chip pattern between calls; once the
/// buffers' capacity covers the output, the call is allocation-free — the
/// form the transmit scratch arena uses.
void spread_into(const BitVector& message, const SpreadCode& code, BitVector& flipped_scratch,
                 BitVector& out);

/// One decoded message bit plus its reliability flag.
struct DespreadBit {
  bool value = false;   ///< decoded bit (meaningless when erased)
  bool erased = false;  ///< |correlation| < tau
  double correlation = 0.0;
};

/// Result of de-spreading a whole message.
struct DespreadResult {
  BitVector bits;                        ///< decoded bits (erased bits arbitrary)
  std::vector<std::size_t> erased_bits;  ///< indices with |corr| < tau
};

/// De-spreads `bit_count` message bits from `chips` starting at chip offset
/// `start`, using `code` and decision threshold `tau`.
/// Precondition: start + bit_count * N <= chips.size().
[[nodiscard]] DespreadResult despread(const BitVector& chips, std::size_t start,
                                      std::size_t bit_count, const SpreadCode& code, double tau);

/// De-spreads a single bit (the N-chip window at `start`).
[[nodiscard]] DespreadBit despread_bit(const BitVector& chips, std::size_t start,
                                       const SpreadCode& code, double tau);

/// The threshold decision every despread path shares: 1 at correlation >=
/// tau, 0 at <= -tau, an erasure in between.
[[nodiscard]] DespreadBit decide_bit(double correlation, double tau) noexcept;

/// despread() into a caller-owned result (cleared and refilled), over one
/// lane of a SIMD-batched table — the path every sliding-window scan takes
/// to recover the message once the batched search has locked onto a code.
/// The lane's strided SoA reads produce the same integer Hamming distances
/// as correlate_at on the same code, so the decisions and correlations are
/// bit-identical to despread(). Allocation-free once `out`'s buffers have
/// steady-state capacity. Precondition: lane < batch.size().
void despread_into(const BitVector& chips, std::size_t start, std::size_t bit_count,
                   const BatchShiftTable& batch, std::size_t lane, double tau,
                   DespreadResult& out);

}  // namespace jrsnd::dsss
