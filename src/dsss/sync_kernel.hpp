// Word-aligned correlation kernel for the sliding-window scan (paper §V-B).
//
// The paper's processing-time model t_p = rho * N * m * f makes the chip-level
// scan the dominant cost of JR-SND: every chip position of the f-chip buffer
// is correlated against each of the receiver's m candidate N-chip codes. The
// naive implementation materializes a heap-allocated window slice per
// (position, code) pair; this kernel instead correlates *in place* against the
// buffer's packed 64-bit words via XOR + popcount.
//
// Two entry points, by amortization regime:
//
//   * hamming_at / correlate_at — one-shot: aligns the buffer window to the
//     code with two word reads and an inline shift per word. Zero allocation;
//     right for de-spreading a handful of bits at a known offset.
//
//   * BatchShiftTable — a *group* of same-length codes precomputed at all 64
//     word alignments in struct-of-arrays order: the scan loads each buffer
//     word once and XOR+popcounts it against every code, with no per-window
//     shifting, on the backend of common/cpu_features.hpp's SIMD level —
//     AVX-512 VPOPCNTDQ (8 codes per op), AVX2 (vpshufb nibble-LUT popcount
//     + psadbw, 4 codes), NEON vcnt, or portable __builtin_popcountll.
//
// Every path and backend computes the identical integer Hamming distance, so
// the normalized correlations (N - 2h) / N are bit-identical doubles — as are
// those of the per-code ShiftTable reference in tests/oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_vector.hpp"
#include "common/cpu_features.hpp"
#include "dsss/correlator.hpp"

namespace jrsnd::dsss {

class SpreadCode;  // dsss/spread_code.hpp

// The batched kernel dispatches on the process-wide SIMD level resolved in
// common/cpu_features.hpp; these declarations keep the dsss:: spelling.
using jrsnd::set_simd_backend;
using jrsnd::SimdBackend;
using jrsnd::simd_backend;
using jrsnd::simd_backend_name;
using jrsnd::simd_backend_supported;

/// Hamming distance between `code` and the window buffer[bit_offset,
/// bit_offset + code.size()), computed against packed words with no
/// allocation. Precondition: bit_offset + code.size() <= buffer.size().
[[nodiscard]] std::size_t hamming_at(const BitVector& buffer, std::size_t bit_offset,
                                     const BitVector& code);

/// Normalized correlation in [-1, +1] of `code` against the window at
/// `bit_offset`: (N - 2 * hamming) / N. Same precondition as hamming_at.
[[nodiscard]] double correlate_at(const BitVector& buffer, std::size_t bit_offset,
                                  const BitVector& code);

/// Writes the code words `src` shifted right by `s` bits (MSB-first packing:
/// the pattern now starts at bit `s`) into out[0, out_words), zero-padded —
/// one alignment row of a shift table.
void shift_words(std::span<const std::uint64_t> src, std::size_t s, std::uint64_t* out,
                 std::size_t out_words) noexcept;

/// A *group* of same-length candidate codes precomputed at all 64 word
/// alignments in struct-of-arrays order: rows[(s * stride + k) * lanes + c]
/// holds code c's word k at alignment s, so the words the scan XORs against
/// one buffer word are contiguous and a single buffer load feeds every code
/// in the group. Lanes are padded to a multiple of 8 (zero rows) so the
/// widest vector backend never reads past the allocation; padding lanes
/// produce unspecified hamming values and must be ignored.
class BatchShiftTable {
 public:
  /// Empty group (size() == 0; hamming_all is a no-op).
  BatchShiftTable() = default;

  /// Batches `codes`, lane c holding codes[c]. Precondition: uniform
  /// lengths (the scan entry points check it before building).
  explicit BatchShiftTable(std::span<const SpreadCode> codes);

  [[nodiscard]] std::size_t size() const noexcept { return m_; }
  [[nodiscard]] bool empty() const noexcept { return m_ == 0; }
  [[nodiscard]] std::size_t length() const noexcept { return length_; }

  /// Lanes the kernels actually write: size() rounded up to 8. Output spans
  /// handed to hamming_all must cover this many entries.
  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_; }

  /// Hamming distance of *every* code in the group against the window at
  /// `bit_offset`, written to out[0, size()) (out[size(), lane_count()) is
  /// scratch). One pass over the buffer words, dispatched to the active
  /// SIMD backend; results are bit-identical to hamming_at on every
  /// backend. Preconditions: bit_offset + length() <= buffer.size(),
  /// out.size() >= lane_count().
  void hamming_all(const BitVector& buffer, std::size_t bit_offset,
                   std::span<std::uint64_t> out) const;

  /// Single-lane hamming distance — the strided SoA read the batched
  /// despread path uses once a scan has locked onto one code. Identical
  /// integers to hamming_at for the same code.
  [[nodiscard]] std::size_t hamming_lane(std::size_t lane, const BitVector& buffer,
                                         std::size_t bit_offset) const;

  /// (N - 2 * hamming_lane) / N, identical to correlate_at.
  [[nodiscard]] double correlate_lane(std::size_t lane, const BitVector& buffer,
                                      std::size_t bit_offset) const;

 private:
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::size_t kLaneAlign = 8;  ///< AVX-512: 8 x 64-bit lanes

  std::size_t length_ = 0;
  std::size_t m_ = 0;
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;  ///< words per alignment row (worst case, s = 63)
  /// SoA rows at [(s * stride_ + k) * lanes_ + c], starting align_offset_
  /// words into the vector so the lane blocks sit on 64-byte boundaries
  /// (vector loads never straddle cache lines). The kernels still use
  /// unaligned-load instructions, so a stale offset (e.g. after a copy
  /// relocates the vector) costs speed, never correctness.
  std::vector<std::uint64_t> rows_;
  std::size_t align_offset_ = 0;

  [[nodiscard]] const std::uint64_t* row_base() const noexcept {
    return rows_.data() + align_offset_;
  }
};

}  // namespace jrsnd::dsss
