#include "dsss/chip_channel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace jrsnd::dsss {

namespace {
constexpr std::size_t kWordBits = 64;
constexpr std::uint64_t kAll = ~std::uint64_t{0};
constexpr std::uint64_t kTopBit = std::uint64_t{1} << (kWordBits - 1);

std::size_t word_count(std::size_t chips) { return (chips + kWordBits - 1) / kWordBits; }

std::size_t plane_count(std::size_t signals) {
  return static_cast<std::size_t>(std::bit_width(signals));
}

/// Adds one to the counter of every lane set in `carry[i]`, for `n` words
/// of one plane, leaving each word's overflow in `carry[i]` for the next
/// plane up: one plane of a ripple-carry increment.
void ripple(std::uint64_t* plane, std::uint64_t* carry, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t overflow = plane[i] & carry[i];
    plane[i] ^= carry[i];
    carry[i] = overflow;
  }
}

/// The counter of `chip`, read back bit by bit from its word's planes.
int lane_count(const std::vector<std::uint64_t>& planes, std::size_t nwords, std::size_t chip) {
  const std::uint64_t bit = kTopBit >> (chip % kWordBits);
  int count = 0;
  for (std::size_t k = 0; k * nwords < planes.size(); ++k) {
    if ((planes[k * nwords + chip / kWordBits] & bit) != 0) count |= 1 << k;
  }
  return count;
}
}  // namespace

void ChipChannel::reset(std::size_t duration_chips) {
  duration_ = duration_chips;
  nwords_ = word_count(duration_chips);
  signals_ = 0;
  planes_ = 0;
  plus_.clear();
  minus_.clear();
}

void ChipChannel::reserve(std::size_t duration_chips, std::size_t signals) {
  const std::size_t words = word_count(duration_chips) * plane_count(signals);
  plus_.reserve(words);
  minus_.reserve(words);
  plus_carry_.reserve(word_count(duration_chips));
  minus_carry_.reserve(word_count(duration_chips));
}

void ChipChannel::add(std::size_t start_chip, const BitVector& chips) {
  if (start_chip >= duration_) return;
  const std::size_t count = std::min(chips.size(), duration_ - start_chip);
  if (count == 0) return;
  if (plane_count(++signals_) > planes_) {
    ++planes_;
    plus_.resize(planes_ * nwords_, 0);
    minus_.resize(planes_ * nwords_, 0);
  }
  // Realign the pattern to the window's words: window word first + j holds
  // the tail of source word j - 1 and the head of source word j, and the
  // edge words are masked to the chips the clipped pattern covers. The +1
  // and -1 lanes become each side's carry-in.
  const std::span<const std::uint64_t> src = chips.words();
  const std::size_t shift = start_chip % kWordBits;
  const std::size_t first = start_chip / kWordBits;
  const std::size_t span = (start_chip + count - 1) / kWordBits - first + 1;
  assert(first + span <= nwords_ && plus_.size() == planes_ * nwords_);
  const std::size_t heads = std::min(span, src.size());  // words with a source head
  plus_carry_.resize(span);
  minus_carry_.resize(span);
  std::uint64_t* carry = plus_carry_.data();
  if (shift == 0) {
    std::copy_n(src.begin(), heads, carry);
  } else {
    carry[0] = src[0] >> shift;
    for (std::size_t j = 1; j < heads; ++j) {
      carry[j] = (src[j] >> shift) | (src[j - 1] << (kWordBits - shift));
    }
    if (span > heads) carry[heads] = src[heads - 1] << (kWordBits - shift);
  }
  for (std::size_t j = 0; j < span; ++j) minus_carry_[j] = ~carry[j];
  const std::uint64_t head = kAll >> shift;
  const std::uint64_t tail = kAll << (kWordBits - 1 - (start_chip + count - 1) % kWordBits);
  plus_carry_.front() &= head;
  minus_carry_.front() &= head;
  plus_carry_.back() &= tail;
  minus_carry_.back() &= tail;
  // Increment both sides' counters, one plane at a time.
  for (std::size_t k = 0; k < planes_; ++k) {
    ripple(plus_.data() + k * nwords_ + first, plus_carry_.data(), span);
    ripple(minus_.data() + k * nwords_ + first, minus_carry_.data(), span);
  }
}

const std::vector<int>& ChipChannel::soft() const {
  soft_.resize(duration_);
  for (std::size_t i = 0; i < duration_; ++i) {
    soft_[i] = lane_count(plus_, nwords_, i) - lane_count(minus_, nwords_, i);
  }
  return soft_;
}

const std::vector<std::uint8_t>& ChipChannel::active() const {
  active_.resize(duration_);
  for (std::size_t i = 0; i < duration_; ++i) {
    active_[i] = lane_count(plus_, nwords_, i) + lane_count(minus_, nwords_, i) > 0 ? 1 : 0;
  }
  return active_;
}

BitVector ChipChannel::receive(Rng& rng) const {
  BitVector out;
  receive_into(rng, out);
  return out;
}

void ChipChannel::receive_into(Rng& rng, BitVector& out) const {
  // Locals, not members: the word stores below could alias a size_t member.
  const std::size_t nwords = nwords_;
  const std::size_t planes = planes_;
  const std::size_t duration = duration_;
  assert(plus_.size() == planes * nwords && minus_.size() == planes * nwords);
  ties_.resize(nwords);
  std::uint64_t* tie = ties_.data();
  out.assign_words(duration, [&](std::span<std::uint64_t> words) {
    // MSB plane first, one pass per plane: the first plane where P and M
    // differ decides a lane; lanes equal on every plane are ties (or
    // silence).
    std::uint64_t* up = words.data();
    std::fill_n(up, nwords, 0);
    std::fill_n(tie, nwords, kAll);
    for (std::size_t k = planes; k-- > 0;) {
      const std::uint64_t* p = plus_.data() + k * nwords;
      const std::uint64_t* m = minus_.data() + k * nwords;
      for (std::size_t w = 0; w < nwords; ++w) {
        up[w] |= tie[w] & p[w] & ~m[w];
        tie[w] &= ~(p[w] ^ m[w]);
      }
    }
    // Thermal noise: one draw per tied chip inside the window, in chip
    // order; a clear top bit is bernoulli(0.5) succeeding (see the header).
    if (nwords != 0) tie[nwords - 1] &= kAll << (nwords * kWordBits - duration);
    for (std::size_t w = 0; w < nwords; ++w) {
      std::uint64_t ties = tie[w];
      if (ties == 0) continue;
      std::uint64_t noise = 0;
      while (ties != 0) {
        const std::uint64_t bit = kTopBit >> std::countl_zero(ties);
        noise |= bit & ((rng.next() >> 63) - 1);
        ties ^= bit;
      }
      up[w] |= noise;
    }
  });
}

}  // namespace jrsnd::dsss
