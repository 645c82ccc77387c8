#include "dsss/sync_kernel.hpp"

#include <bit>
#include <cassert>
#include <cstdint>

#include "common/cpu_features.hpp"
#include "dsss/correlator.hpp"
#include "dsss/spread_code.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace jrsnd::dsss {

namespace {

constexpr std::size_t kWordBits = 64;

/// Zeroes the bits of `word` beyond the first `valid` (0 < valid <= 64).
constexpr std::uint64_t keep_leading(std::uint64_t word, std::size_t valid) noexcept {
  return valid == kWordBits ? word : word & (~std::uint64_t{0} << (kWordBits - valid));
}

/// words[k] of `src` treated as an infinite zero-padded stream.
std::uint64_t padded_word(std::span<const std::uint64_t> src, std::size_t k) noexcept {
  return k < src.size() ? src[k] : 0;
}

// --- batched hamming kernels ------------------------------------------------
//
// Shared contract: rows points at the alignment-s block of a BatchShiftTable
// (lanes words per buffer word, lanes % 8 == 0), nw >= 1 window words. The
// first and last buffer words arrive pre-masked (w0, wl) — the rows are zero
// outside the window, so (buf & mask) ^ row == (buf ^ row) & mask and the
// inner loops carry no masking at all. Writes acc[0, lanes): the exact
// integer Hamming distance of each lane's code against the window. Every
// backend computes identical integers; they differ only in how many lanes
// one instruction covers.

void batch_hamming_scalar(const std::uint64_t* rows, std::size_t lanes, std::size_t nw,
                          const std::uint64_t* buf, std::uint64_t w0, std::uint64_t wl,
                          std::uint64_t* acc) noexcept {
  for (std::size_t c = 0; c < lanes; ++c) {
    acc[c] = static_cast<std::uint64_t>(std::popcount(w0 ^ rows[c]));
  }
  for (std::size_t k = 1; k + 1 < nw; ++k) {
    const std::uint64_t w = buf[k];
    const std::uint64_t* row = rows + k * lanes;
    for (std::size_t c = 0; c < lanes; ++c) {
      acc[c] += static_cast<std::uint64_t>(std::popcount(w ^ row[c]));
    }
  }
  if (nw > 1) {
    const std::uint64_t* row = rows + (nw - 1) * lanes;
    for (std::size_t c = 0; c < lanes; ++c) {
      acc[c] += static_cast<std::uint64_t>(std::popcount(wl ^ row[c]));
    }
  }
}

#if defined(__x86_64__)

/// Mula vpshufb popcount: per-byte nibble LUT counts summed into the two
/// 64-bit halves of each 128-bit half by psadbw — exact per-lane popcounts.
__attribute__((target("avx2"), always_inline)) inline __m256i popcnt_epi64_avx2(
    __m256i v, __m256i lut, __m256i low) noexcept {
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  const __m256i per_byte =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(per_byte, _mm256_setzero_si256());
}

// The batched kernels are 64-byte aligned so where their loops fall against
// fetch-block boundaries does not shift with unrelated code linked before
// them (as the SHA-256 kernels are).
__attribute__((target("avx2"), aligned(64))) void batch_hamming_avx2(
    const std::uint64_t* rows, std::size_t lanes, std::size_t nw, const std::uint64_t* buf,
    std::uint64_t w0, std::uint64_t wl, std::uint64_t* acc) noexcept {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  for (std::size_t c = 0; c < lanes; c += 8) {
    const __m256i v0 = _mm256_set1_epi64x(static_cast<long long>(w0));
    const std::uint64_t* row0 = rows + c;
    __m256i a0 = popcnt_epi64_avx2(
        _mm256_xor_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(row0)), v0), lut,
        low);
    __m256i a1 = popcnt_epi64_avx2(
        _mm256_xor_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(row0 + 4)), v0),
        lut, low);
    for (std::size_t k = 1; k + 1 < nw; ++k) {
      const __m256i w = _mm256_set1_epi64x(static_cast<long long>(buf[k]));
      const std::uint64_t* row = rows + k * lanes + c;
      a0 = _mm256_add_epi64(
          a0, popcnt_epi64_avx2(
                  _mm256_xor_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)), w),
                  lut, low));
      a1 = _mm256_add_epi64(
          a1, popcnt_epi64_avx2(_mm256_xor_si256(_mm256_loadu_si256(
                                                     reinterpret_cast<const __m256i*>(row + 4)),
                                                 w),
                                lut, low));
    }
    if (nw > 1) {
      const __m256i w = _mm256_set1_epi64x(static_cast<long long>(wl));
      const std::uint64_t* row = rows + (nw - 1) * lanes + c;
      a0 = _mm256_add_epi64(
          a0, popcnt_epi64_avx2(
                  _mm256_xor_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)), w),
                  lut, low));
      a1 = _mm256_add_epi64(
          a1, popcnt_epi64_avx2(_mm256_xor_si256(_mm256_loadu_si256(
                                                     reinterpret_cast<const __m256i*>(row + 4)),
                                                 w),
                                lut, low));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c + 4), a1);
  }
}

__attribute__((target("avx512f,avx512vpopcntdq"), always_inline)) inline __m512i
xor_popcnt_avx512(const std::uint64_t* row, __m512i w) noexcept {
  return _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(row), w));
}

__attribute__((target("avx512f,avx512vpopcntdq"), aligned(64))) void batch_hamming_avx512(
    const std::uint64_t* rows, std::size_t lanes, std::size_t nw, const std::uint64_t* buf,
    std::uint64_t w0, std::uint64_t wl, std::uint64_t* acc) noexcept {
  std::size_t c = 0;
  // 32-lane blocks: one buffer-word broadcast feeds four ZMM rows, and the
  // four independent accumulator chains keep vpopcntq's latency off the
  // critical path.
  for (; c + 32 <= lanes; c += 32) {
    const std::uint64_t* r = rows + c;
    __m512i w = _mm512_set1_epi64(static_cast<long long>(w0));
    __m512i a0 = xor_popcnt_avx512(r, w);
    __m512i a1 = xor_popcnt_avx512(r + 8, w);
    __m512i a2 = xor_popcnt_avx512(r + 16, w);
    __m512i a3 = xor_popcnt_avx512(r + 24, w);
    for (std::size_t k = 1; k + 1 < nw; ++k) {
      w = _mm512_set1_epi64(static_cast<long long>(buf[k]));
      r = rows + k * lanes + c;
      a0 = _mm512_add_epi64(a0, xor_popcnt_avx512(r, w));
      a1 = _mm512_add_epi64(a1, xor_popcnt_avx512(r + 8, w));
      a2 = _mm512_add_epi64(a2, xor_popcnt_avx512(r + 16, w));
      a3 = _mm512_add_epi64(a3, xor_popcnt_avx512(r + 24, w));
    }
    if (nw > 1) {
      w = _mm512_set1_epi64(static_cast<long long>(wl));
      r = rows + (nw - 1) * lanes + c;
      a0 = _mm512_add_epi64(a0, xor_popcnt_avx512(r, w));
      a1 = _mm512_add_epi64(a1, xor_popcnt_avx512(r + 8, w));
      a2 = _mm512_add_epi64(a2, xor_popcnt_avx512(r + 16, w));
      a3 = _mm512_add_epi64(a3, xor_popcnt_avx512(r + 24, w));
    }
    _mm512_storeu_si512(acc + c, a0);
    _mm512_storeu_si512(acc + c + 8, a1);
    _mm512_storeu_si512(acc + c + 16, a2);
    _mm512_storeu_si512(acc + c + 24, a3);
  }
  for (; c < lanes; c += 8) {
    __m512i a = xor_popcnt_avx512(rows + c, _mm512_set1_epi64(static_cast<long long>(w0)));
    for (std::size_t k = 1; k + 1 < nw; ++k) {
      a = _mm512_add_epi64(a, xor_popcnt_avx512(rows + k * lanes + c,
                                                _mm512_set1_epi64(static_cast<long long>(buf[k]))));
    }
    if (nw > 1) {
      a = _mm512_add_epi64(a, xor_popcnt_avx512(rows + (nw - 1) * lanes + c,
                                                _mm512_set1_epi64(static_cast<long long>(wl))));
    }
    _mm512_storeu_si512(acc + c, a);
  }
}

#elif defined(__aarch64__)

/// vcnt counts per byte; the vpaddl ladder widens to per-64-bit-lane sums.
inline uint64x2_t popcnt_u64x2_neon(uint64x2_t v) noexcept {
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))));
}

void batch_hamming_neon(const std::uint64_t* rows, std::size_t lanes, std::size_t nw,
                        const std::uint64_t* buf, std::uint64_t w0, std::uint64_t wl,
                        std::uint64_t* acc) noexcept {
  for (std::size_t c = 0; c < lanes; c += 2) {
    uint64x2_t a = popcnt_u64x2_neon(veorq_u64(vld1q_u64(rows + c), vdupq_n_u64(w0)));
    for (std::size_t k = 1; k + 1 < nw; ++k) {
      a = vaddq_u64(a, popcnt_u64x2_neon(
                           veorq_u64(vld1q_u64(rows + k * lanes + c), vdupq_n_u64(buf[k]))));
    }
    if (nw > 1) {
      a = vaddq_u64(a, popcnt_u64x2_neon(veorq_u64(vld1q_u64(rows + (nw - 1) * lanes + c),
                                                   vdupq_n_u64(wl))));
    }
    vst1q_u64(acc + c, a);
  }
}

#endif

}  // namespace

std::size_t hamming_at(const BitVector& buffer, std::size_t bit_offset, const BitVector& code) {
  const std::size_t n = code.size();
  assert(n > 0);
  assert(bit_offset + n <= buffer.size());
  const std::span<const std::uint64_t> buf = buffer.words();
  const std::span<const std::uint64_t> cw = code.words();
  const std::size_t s = bit_offset % kWordBits;
  const std::size_t w0 = bit_offset / kWordBits;
  const std::size_t tail = n % kWordBits;

  std::size_t h = 0;
  for (std::size_t k = 0; k < cw.size(); ++k) {
    // Align the buffer window to the code: two word reads + one shift.
    std::uint64_t window = buf[w0 + k] << s;
    if (s != 0 && w0 + k + 1 < buf.size()) {
      window |= buf[w0 + k + 1] >> (kWordBits - s);
    }
    // The code's slack bits are zero (BitVector invariant); the window's
    // final word may carry live buffer bits past the code, so mask them.
    if (k + 1 == cw.size() && tail != 0) window = keep_leading(window, tail);
    h += static_cast<std::size_t>(std::popcount(window ^ cw[k]));
  }
  return h;
}

double correlate_at(const BitVector& buffer, std::size_t bit_offset, const BitVector& code) {
  return correlation_from_hamming(code.size(), hamming_at(buffer, bit_offset, code));
}

void shift_words(std::span<const std::uint64_t> src, std::size_t s, std::uint64_t* out,
                 std::size_t out_words) noexcept {
  for (std::size_t k = 0; k < out_words; ++k) {
    const std::uint64_t lo = padded_word(src, k);
    if (s == 0) {
      out[k] = lo;
    } else {
      const std::uint64_t hi = k == 0 ? 0 : padded_word(src, k - 1);
      out[k] = (lo >> s) | (hi << (kWordBits - s));
    }
  }
}

BatchShiftTable::BatchShiftTable(std::span<const SpreadCode> codes) : m_(codes.size()) {
  if (m_ == 0) return;
  length_ = codes[0].length();
  lanes_ = (m_ + kLaneAlign - 1) / kLaneAlign * kLaneAlign;
  stride_ = (kWordBits - 1 + length_ + kWordBits - 1) / kWordBits;
  // Padding lanes stay zero: harmless to XOR against, never reported. Seven
  // slack words let the SoA base round up to a 64-byte boundary, putting
  // every 8-lane block on its own cache line.
  rows_.assign(kWordBits * stride_ * lanes_ + kLaneAlign - 1, 0);
  align_offset_ =
      (64 - reinterpret_cast<std::uintptr_t>(rows_.data()) % 64) % 64 / sizeof(std::uint64_t);
  std::uint64_t* base = rows_.data() + align_offset_;
  std::vector<std::uint64_t> contiguous(stride_);
  for (std::size_t c = 0; c < m_; ++c) {
    assert(codes[c].length() == length_ && "BatchShiftTable: mixed code lengths");
    const std::span<const std::uint64_t> cw = codes[c].bits().words();
    for (std::size_t s = 0; s < kWordBits; ++s) {
      shift_words(cw, s, contiguous.data(), stride_);
      // Transpose into SoA order: lane c of every (s, k) block.
      for (std::size_t k = 0; k < stride_; ++k) {
        base[(s * stride_ + k) * lanes_ + c] = contiguous[k];
      }
    }
  }
}

void BatchShiftTable::hamming_all(const BitVector& buffer, std::size_t bit_offset,
                                  std::span<std::uint64_t> out) const {
  if (m_ == 0) return;
  assert(bit_offset + length_ <= buffer.size());
  assert(out.size() >= lanes_);
  const std::size_t s = bit_offset % kWordBits;
  const std::uint64_t* buf = buffer.words().data() + bit_offset / kWordBits;
  const std::uint64_t* rows = row_base() + s * stride_ * lanes_;
  const std::size_t nw = (s + length_ + kWordBits - 1) / kWordBits;
  const std::uint64_t first = ~std::uint64_t{0} >> s;
  const std::size_t valid = (s + length_ - 1) % kWordBits + 1;
  const std::uint64_t last = ~std::uint64_t{0} << (kWordBits - valid);
  // Pre-masked edge words, computed once for the whole group (the per-code
  // path recomputes the equivalent masks for every candidate).
  const std::uint64_t w0 = nw == 1 ? (buf[0] & first & last) : (buf[0] & first);
  const std::uint64_t wl = buf[nw - 1] & last;
  switch (simd_backend()) {
#if defined(__x86_64__)
    case SimdBackend::kAvx512:
      batch_hamming_avx512(rows, lanes_, nw, buf, w0, wl, out.data());
      return;
    case SimdBackend::kAvx2:
      batch_hamming_avx2(rows, lanes_, nw, buf, w0, wl, out.data());
      return;
#elif defined(__aarch64__)
    case SimdBackend::kNeon:
      batch_hamming_neon(rows, lanes_, nw, buf, w0, wl, out.data());
      return;
#endif
    default:
      batch_hamming_scalar(rows, lanes_, nw, buf, w0, wl, out.data());
      return;
  }
}

std::size_t BatchShiftTable::hamming_lane(std::size_t lane, const BitVector& buffer,
                                          std::size_t bit_offset) const {
  assert(lane < m_);
  assert(bit_offset + length_ <= buffer.size());
  const std::size_t s = bit_offset % kWordBits;
  const std::uint64_t* buf = buffer.words().data() + bit_offset / kWordBits;
  const std::uint64_t* row = row_base() + s * stride_ * lanes_ + lane;
  const std::size_t nw = (s + length_ + kWordBits - 1) / kWordBits;
  const std::uint64_t first = ~std::uint64_t{0} >> s;
  const std::size_t valid = (s + length_ - 1) % kWordBits + 1;
  const std::uint64_t last = ~std::uint64_t{0} << (kWordBits - valid);
  if (nw == 1) {
    return static_cast<std::size_t>(std::popcount((buf[0] ^ row[0]) & first & last));
  }
  std::size_t h = static_cast<std::size_t>(std::popcount((buf[0] ^ row[0]) & first));
  for (std::size_t k = 1; k + 1 < nw; ++k) {
    h += static_cast<std::size_t>(std::popcount(buf[k] ^ row[k * lanes_]));
  }
  h += static_cast<std::size_t>(std::popcount((buf[nw - 1] ^ row[(nw - 1) * lanes_]) & last));
  return h;
}

double BatchShiftTable::correlate_lane(std::size_t lane, const BitVector& buffer,
                                       std::size_t bit_offset) const {
  return correlation_from_hamming(length_, hamming_lane(lane, buffer, bit_offset));
}

}  // namespace jrsnd::dsss
