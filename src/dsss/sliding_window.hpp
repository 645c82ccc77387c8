// Sliding-window synchronization + message recovery (paper §V-B).
//
// A receiver that has buffered f chips does not know where (or with which of
// its m codes) an incoming HELLO starts. Following the paper's algorithm
// (after [7]), it slides an N-chip window over every chip position i in
// [0, f - N], correlating the window against each candidate code; the first
// position where |correlation| >= tau marks the first bit of a message
// spread with that code, and the remaining bits are de-spread at stride N
// from there.
//
// The scan core batches the whole candidate pool: one pass over the buffer
// scores every code per window through BatchShiftTable::hamming_all
// (dsss/sync_kernel.hpp), dispatched on the process-wide SIMD level
// (common/cpu_features.hpp; JRSND_SIMD overrides). The threshold test runs in the Hamming
// domain with bounds derived from the same double predicate, so hits,
// counters, and recovered messages are byte-identical on every backend to
// the per-code and slice-based reference scans of the test-side oracle
// library (tests/oracle/dsss_reference.hpp).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/bit_vector.hpp"
#include "dsss/spread_code.hpp"
#include "dsss/spreader.hpp"

namespace jrsnd::dsss {

class PreparedCodebook;  // dsss/prepared_codebook.hpp

/// A message recovered from the chip buffer.
struct SyncHit {
  std::size_t code_index = 0;   ///< index into the candidate-code span
  std::size_t chip_offset = 0;  ///< chip position of the message's first bit
  DespreadResult message;       ///< the de-spread bits + erasure marks
};

/// Scans `buffer` from `start_offset` for the earliest message of
/// `message_bits` bits spread with any of `codes`. Returns nullopt if no
/// window synchronizes. The scan requires the *full* message to fit:
/// offsets beyond buffer.size() - message_bits * N are not considered.
/// Noise can exceed tau at a random position (false lock, probability
/// false_sync_probability() per position); callers resolve this by retrying
/// from hit.chip_offset + 1 when the ECC decode rejects the recovered bits.
///
/// Precondition: every candidate shares codes[0].length() — the scan slides
/// one window at one stride. Mixed lengths assert in debug builds and make
/// the scan report no hit in release builds.
///
/// Implementation: the allocation-free batched kernel (dsss/sync_kernel.hpp)
/// — the candidate pool is precomputed at all 64 word alignments once per
/// scan, then every window is XOR + popcount against the buffer's packed
/// words.
[[nodiscard]] std::optional<SyncHit> find_first_message(const BitVector& buffer,
                                                        std::span<const SpreadCode> codes,
                                                        std::size_t message_bits, double tau,
                                                        std::size_t start_offset = 0);

/// find_first_message over a PreparedCodebook: identical results, but the
/// BatchShiftTable comes from the codebook's cache instead of being rebuilt
/// per call — the form ChipPhy's transmit path and its
/// recover-and-rescan loop use, where the same codebook is scanned at many
/// resume offsets.
[[nodiscard]] std::optional<SyncHit> find_first_message(const BitVector& buffer,
                                                        const PreparedCodebook& codebook,
                                                        std::size_t message_bits, double tau,
                                                        std::size_t start_offset = 0);

/// find_first_message into a caller-owned hit (overwritten on success, left
/// unspecified on miss). Returns whether a message was found. Identical
/// decisions to the optional-returning overloads; allocation-free once
/// `out.message`'s buffers have steady-state capacity — the transmit scratch
/// arena's scan entry point.
[[nodiscard]] bool find_first_message_into(const BitVector& buffer,
                                           const PreparedCodebook& codebook,
                                           std::size_t message_bits, double tau,
                                           std::size_t start_offset, SyncHit& out);

/// Scans the whole buffer and returns every non-overlapping message found
/// (continues searching after each recovered message). Models the paper's
/// note that a buffer may hold multiple HELLOs from concurrent initiators.
/// Same mixed-length precondition as find_first_message.
[[nodiscard]] std::vector<SyncHit> find_all_messages(const BitVector& buffer,
                                                     std::span<const SpreadCode> codes,
                                                     std::size_t message_bits, double tau);

/// find_all_messages over a PreparedCodebook (cached BatchShiftTable).
[[nodiscard]] std::vector<SyncHit> find_all_messages(const BitVector& buffer,
                                                     const PreparedCodebook& codebook,
                                                     std::size_t message_bits, double tau);

/// The number of code correlations the scan performs, the quantity the
/// paper's processing-time model t_p = rho * N * m * f is built on.
[[nodiscard]] std::size_t scan_correlation_count(std::size_t buffer_chips,
                                                 std::size_t code_count,
                                                 std::size_t code_length);

}  // namespace jrsnd::dsss
