#include "oracle/dsss_reference.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "dsss/sync_kernel.hpp"

namespace jrsnd::oracle {

using dsss::DespreadBit;
using dsss::DespreadResult;
using dsss::SpreadCode;
using dsss::SyncHit;

void ReferenceChipChannel::add(std::size_t start_chip, const BitVector& chips) {
  for (std::size_t i = 0; i < chips.size() && start_chip + i < soft_.size(); ++i) {
    soft_[start_chip + i] += chips.get(i) ? 1 : -1;
    active_[start_chip + i] = 1;
  }
}

BitVector ReferenceChipChannel::receive(Rng& rng) const {
  BitVector out(soft_.size());
  for (std::size_t i = 0; i < soft_.size(); ++i) {
    if (soft_[i] > 0) {
      out.set(i, true);
    } else if (soft_[i] == 0) {
      out.set(i, rng.bernoulli(0.5));  // tie or silence: thermal noise
    }
  }
  return out;
}

ShiftTable::ShiftTable(const SpreadCode& code)
    : length_(code.length()), stride_((kWordBits - 1 + length_ + kWordBits - 1) / kWordBits) {
  rows_.resize(kWordBits * stride_);
  const std::span<const std::uint64_t> cw = code.bits().words();
  for (std::size_t s = 0; s < kWordBits; ++s) {
    dsss::shift_words(cw, s, rows_.data() + s * stride_, stride_);
  }
}

std::vector<ShiftTable> build_shift_tables(std::span<const SpreadCode> codes) {
  std::vector<ShiftTable> tables;
  tables.reserve(codes.size());
  for (const SpreadCode& code : codes) tables.emplace_back(code);
  return tables;
}

DespreadBit despread_bit(const BitVector& chips, std::size_t start, const ShiftTable& code,
                         double tau) {
  assert(start + code.length() <= chips.size());
  return dsss::decide_bit(code.correlate(chips, start), tau);
}

DespreadResult despread(const BitVector& chips, std::size_t start, std::size_t bit_count,
                        const ShiftTable& code, double tau) {
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

std::optional<SyncHit> find_first_message_reference(const BitVector& buffer,
                                                    std::span<const SpreadCode> codes,
                                                    std::size_t message_bits, double tau,
                                                    std::size_t start_offset) {
  if (codes.empty() || message_bits == 0) return std::nullopt;
  assert(dsss::uniform_code_lengths(codes) &&
         "find_first_message_reference: mixed candidate code lengths");
  if (!dsss::uniform_code_lengths(codes)) return std::nullopt;
  const std::size_t n = codes[0].length();
  const std::size_t needed = message_bits * n;
  if (buffer.size() < needed) return std::nullopt;

  for (std::size_t offset = start_offset; offset + needed <= buffer.size(); ++offset) {
    // One slice per window position, shared across the m candidates — the
    // slice is offset-dependent, not code-dependent.
    const BitVector window = buffer.slice(offset, n);
    for (std::size_t c = 0; c < codes.size(); ++c) {
      const double corr = codes[c].correlate(window);
      if (std::abs(corr) >= tau) {
        SyncHit hit;
        hit.code_index = c;
        hit.chip_offset = offset;
        hit.message = dsss::despread(buffer, offset, message_bits, codes[c], tau);
        return hit;
      }
    }
  }
  return std::nullopt;
}

std::vector<SyncHit> find_all_messages_reference(const BitVector& buffer,
                                                 std::span<const SpreadCode> codes,
                                                 std::size_t message_bits, double tau) {
  std::vector<SyncHit> hits;
  if (codes.empty() || message_bits == 0) return hits;
  assert(dsss::uniform_code_lengths(codes) &&
         "find_all_messages_reference: mixed candidate code lengths");
  if (!dsss::uniform_code_lengths(codes)) return hits;
  const std::size_t n = codes[0].length();
  const std::size_t needed = message_bits * n;

  std::size_t offset = 0;
  while (offset + needed <= buffer.size()) {
    bool found = false;
    const BitVector window = buffer.slice(offset, n);
    for (std::size_t c = 0; c < codes.size(); ++c) {
      const double corr = codes[c].correlate(window);
      if (std::abs(corr) >= tau) {
        SyncHit hit;
        hit.code_index = c;
        hit.chip_offset = offset;
        hit.message = dsss::despread(buffer, offset, message_bits, codes[c], tau);
        hits.push_back(std::move(hit));
        offset += needed;  // resume after the recovered message
        found = true;
        break;
      }
    }
    if (!found) ++offset;
  }
  return hits;
}

}  // namespace jrsnd::oracle
