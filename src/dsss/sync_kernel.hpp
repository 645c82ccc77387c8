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
//   * ShiftTable — precomputes the code's words at all 64 possible bit
//     alignments once per scan, so the scan inner loop does zero allocation
//     *and* zero per-window bit shifting: for chip offset i it picks row
//     i % 64 and XOR/popcounts it directly against buffer words starting at
//     i / 64. Only the row's first and last words carry buffer bits outside
//     the window; their masks are two ALU ops from s, so no mask rows are
//     stored and the whole table is 64 * ceil((63 + N) / 64) words
//     (~4.7 KiB at N = 512) — small enough that a Table-I scan's working
//     set stays L1-resident. Construction is amortized over the ~f * m
//     correlations of a scan.
//
// Both paths compute the identical integer Hamming distance, so their
// normalized correlations (N - 2h) / N are bit-identical doubles — the
// sliding-window results do not depend on which path ran.
// A third entry point batches candidates (ROADMAP: SIMD-batched correlator):
//
//   * BatchShiftTable — struct-of-arrays form of a *group* of same-length
//     codes: for every alignment s and word index k, the group's m code
//     words sit contiguously, so the scan loads each buffer word once and
//     XOR+popcounts it against every code in the group. The inner loop runs
//     on one of several kernel backends selected once at startup (the
//     shared SIMD level of common/cpu_features.hpp): AVX-512 VPOPCNTDQ (8
//     codes per vector op), AVX2 (vpshufb nibble-LUT popcount + psadbw, 4
//     codes per vector), NEON vcnt on aarch64, or the portable scalar
//     __builtin_popcountll path. All backends accumulate exact integer Hamming distances, so
//     every backend — and the single-code paths above — produce
//     bit-identical correlations.
#pragma once

#include <bit>
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

/// A candidate code precomputed at all 64 word alignments. Row s holds the
/// code's chips shifted to start at bit s of a word boundary; correlating
/// the window at chip offset i reduces to XOR + popcount of row i % 64
/// against the buffer words from i / 64 on, with only the two edge words
/// masked (their masks derive from s alone).
class ShiftTable {
 public:
  explicit ShiftTable(const SpreadCode& code);

  [[nodiscard]] std::size_t length() const noexcept { return length_; }

  /// Hamming distance to the window at `bit_offset`; allocation-free,
  /// shift-free. Precondition: bit_offset + length() <= buffer.size().
  /// Defined inline: this is the body of the scan's hot loop.
  [[nodiscard]] std::size_t hamming(const BitVector& buffer, std::size_t bit_offset) const {
    const std::size_t s = bit_offset % kWordBits;
    const std::uint64_t* buf = buffer.words().data() + bit_offset / kWordBits;
    const std::uint64_t* row = rows_.data() + s * stride_;
    const std::size_t nw = (s + length_ + kWordBits - 1) / kWordBits;
    // Bits of the first word before s and of the last word past the code are
    // live buffer bits outside the window; the rows hold zeros there, so the
    // two edge masks silence them. Interior words need no mask.
    const std::uint64_t first = ~std::uint64_t{0} >> s;
    const std::size_t valid = (s + length_ - 1) % kWordBits + 1;
    const std::uint64_t last = ~std::uint64_t{0} << (kWordBits - valid);
    if (nw == 1) {
      return static_cast<std::size_t>(std::popcount((buf[0] ^ row[0]) & first & last));
    }
    std::size_t h = static_cast<std::size_t>(std::popcount((buf[0] ^ row[0]) & first));
    for (std::size_t k = 1; k + 1 < nw; ++k) {
      h += static_cast<std::size_t>(std::popcount(buf[k] ^ row[k]));
    }
    h += static_cast<std::size_t>(std::popcount((buf[nw - 1] ^ row[nw - 1]) & last));
    return h;
  }

  /// (N - 2 * hamming) / N, identical to SpreadCode::correlate on a slice.
  [[nodiscard]] double correlate(const BitVector& buffer, std::size_t bit_offset) const {
    return correlation_from_hamming(length_, hamming(buffer, bit_offset));
  }

 private:
  static constexpr std::size_t kWordBits = 64;

  std::size_t length_ = 0;
  std::size_t stride_ = 0;  ///< words per alignment row (worst case, s = 63)
  std::vector<std::uint64_t> rows_;  ///< 64 rows of stride_ words: code >> s
};

/// One ShiftTable per candidate code — the per-code reference form the
/// batched kernel is tested and benchmarked against.
[[nodiscard]] std::vector<ShiftTable> build_shift_tables(std::span<const SpreadCode> codes);

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
  /// SIMD backend; results are bit-identical to ShiftTable::hamming on
  /// every backend. Preconditions: bit_offset + length() <= buffer.size(),
  /// out.size() >= lane_count().
  void hamming_all(const BitVector& buffer, std::size_t bit_offset,
                   std::span<std::uint64_t> out) const;

  /// Single-lane hamming distance — the strided SoA read the batched
  /// despread path uses once a scan has locked onto one code. Identical
  /// integers to ShiftTable::hamming for the same code.
  [[nodiscard]] std::size_t hamming_lane(std::size_t lane, const BitVector& buffer,
                                         std::size_t bit_offset) const;

  /// (N - 2 * hamming_lane) / N, identical to ShiftTable::correlate.
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
