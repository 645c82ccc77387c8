#include "dsss/spreader.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "dsss/sync_kernel.hpp"
#include "obs/prof/perf_counters.hpp"

namespace jrsnd::dsss {

BitVector spread(const BitVector& message, const SpreadCode& code) {
  BitVector flipped;
  BitVector chips;
  spread_into(message, code, flipped, chips);
  return chips;
}

void spread_into(const BitVector& message, const SpreadCode& code, BitVector& flipped_scratch,
                 BitVector& out) {
  // NRZ product: message +1 keeps the chip pattern, -1 inverts it. Both
  // patterns are precomputed so each message bit is one word-level append.
  const BitVector& direct = code.bits();
  flipped_scratch.assign_inverted(direct);
  out.clear();
  out.reserve(message.size() * code.length());
  for (std::size_t bit = 0; bit < message.size(); ++bit) {
    out.append(message.get(bit) ? direct : flipped_scratch);
  }
}

DespreadBit decide_bit(double correlation, double tau) noexcept {
  DespreadBit out;
  out.correlation = correlation;
  if (correlation >= tau) {
    out.value = true;
  } else if (correlation <= -tau) {
    out.value = false;
  } else {
    out.erased = true;
  }
  return out;
}

DespreadBit despread_bit(const BitVector& chips, std::size_t start, const SpreadCode& code,
                         double tau) {
  assert(start + code.length() <= chips.size());
  return decide_bit(correlate_at(chips, start, code.bits()), tau);
}

DespreadResult despread(const BitVector& chips, std::size_t start, std::size_t bit_count,
                        const SpreadCode& code, double tau) {
  if (start + bit_count * code.length() > chips.size()) {
    throw std::invalid_argument("despread: window exceeds chip buffer");
  }
  DespreadResult result;
  for (std::size_t bit = 0; bit < bit_count; ++bit) {
    const DespreadBit d = despread_bit(chips, start + bit * code.length(), code, tau);
    result.bits.push_back(d.value);
    if (d.erased) result.erased_bits.push_back(bit);
  }
  return result;
}

void despread_into(const BitVector& chips, std::size_t start, std::size_t bit_count,
                   const BatchShiftTable& batch, std::size_t lane, double tau,
                   DespreadResult& out) {
  assert(lane < batch.size());
  if (start + bit_count * batch.length() > chips.size()) {
    throw std::invalid_argument("despread: window exceeds chip buffer");
  }
  JRSND_PERF_REGION("dsss.despread");
  // decide_bit in the Hamming domain: a 1 below hit_below, a 0 from
  // hit_from on, an erasure (bit left 0) in between.
  const HammingBounds bounds = hamming_bounds(batch.length(), tau);
  out.erased_bits.clear();
  out.bits.assign_words(bit_count, [&](std::span<std::uint64_t> words) {
    std::fill(words.begin(), words.end(), 0);
    for (std::size_t bit = 0; bit < bit_count; ++bit) {
      const std::size_t h = batch.hamming_lane(lane, chips, start + bit * batch.length());
      if (h < bounds.hit_below) {
        words[bit / 64] |= (std::uint64_t{1} << 63) >> (bit % 64);
      } else if (h < bounds.hit_from) {
        out.erased_bits.push_back(bit);
      }
    }
  });
}

}  // namespace jrsnd::dsss
