#include "common/bit_vector.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace jrsnd {

BitVector::BitVector(std::size_t count)
    : words_((count + kWordBits - 1) / kWordBits, 0), size_(count) {}

BitVector BitVector::from_bytes(std::span<const std::uint8_t> bytes) {
  BitVector v(bytes.size() * 8);
  // Byte i lands at bits [8i, 8i + 8): never straddles a word (8 divides 64);
  // the slack past the last byte stays zero.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    v.words_[i / 8] |= std::uint64_t{bytes[i]} << (56 - 8 * (i % 8));
  }
  return v;
}

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v;
  for (const char c : bits) {
    if (c != '0' && c != '1') throw std::invalid_argument("BitVector::from_string: bad char");
    v.push_back(c == '1');
  }
  return v;
}

bool BitVector::get(std::size_t index) const {
  assert(index < size_);
  return (words_[word_index(index)] & bit_mask(index)) != 0;
}

void BitVector::set(std::size_t index, bool value) {
  assert(index < size_);
  if (value) {
    words_[word_index(index)] |= bit_mask(index);
  } else {
    words_[word_index(index)] &= ~bit_mask(index);
  }
}

void BitVector::flip(std::size_t index) {
  assert(index < size_);
  words_[word_index(index)] ^= bit_mask(index);
}

void BitVector::push_back(bool bit) {
  if (size_ % kWordBits == 0) words_.push_back(0);
  ++size_;
  if (bit) set(size_ - 1, true);
}

void BitVector::append(const BitVector& other) {
  // Word-level splice. Invariant maintained everywhere: bits beyond size_
  // in the final word are zero, so other's words can be OR-merged directly.
  // Locals throughout: a word store could otherwise alias size_ and force
  // a reload per word.
  if (other.size_ == 0) return;
  const std::size_t offset = size_ % kWordBits;
  const std::size_t first = size_ / kWordBits;
  const std::size_t n = other.words_.size();
  size_ += other.size_;
  words_.resize((size_ + kWordBits - 1) / kWordBits, 0);
  std::uint64_t* dst = words_.data() + first;
  const std::uint64_t* src = other.words_.data();
  if (offset == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
    return;
  }
  // Source word i lands across destination words i and i + 1; the last
  // one's spill exists only when the appended bits reach it.
  const std::size_t spills = std::min(n, words_.size() - first - 1);
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i] >> offset;
  for (std::size_t i = 0; i < spills; ++i) dst[i + 1] |= src[i] << (kWordBits - offset);
}

BitVector BitVector::inverted() const {
  BitVector out;
  out.assign_inverted(*this);
  return out;
}

void BitVector::assign_inverted(const BitVector& other) {
  words_.resize(other.words_.size());
  size_ = other.size_;
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] = ~other.words_[w];
  // Re-zero the slack beyond size_ to preserve the invariant.
  const std::size_t tail = size_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= ~std::uint64_t{0} << (kWordBits - tail);
  }
}

void BitVector::truncate(std::size_t new_size) noexcept {
  if (new_size >= size_) return;
  size_ = new_size;
  words_.resize((new_size + kWordBits - 1) / kWordBits);
  const std::size_t tail = size_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= ~std::uint64_t{0} << (kWordBits - tail);
  }
}

BitVector BitVector::slice(std::size_t offset, std::size_t count) const {
  assert(offset + count <= size_);
  BitVector out;
  out.size_ = count;
  out.words_.resize((count + kWordBits - 1) / kWordBits, 0);
  const std::size_t shift = offset % kWordBits;
  for (std::size_t w = 0; w < out.words_.size(); ++w) {
    const std::size_t base = offset + w * kWordBits;
    const std::size_t wi = base / kWordBits;
    std::uint64_t word = words_[wi] << shift;
    if (shift != 0 && wi + 1 < words_.size()) {
      word |= words_[wi + 1] >> (kWordBits - shift);
    }
    out.words_[w] = word;
  }
  // Zero the slack beyond count (invariant).
  const std::size_t tail = count % kWordBits;
  if (tail != 0 && !out.words_.empty()) {
    out.words_.back() &= ~std::uint64_t{0} << (kWordBits - tail);
  }
  return out;
}

BitVector BitVector::xor_with(const BitVector& other) const {
  if (size_ != other.size_) throw std::invalid_argument("BitVector::xor_with: size mismatch");
  BitVector out = *this;
  for (std::size_t w = 0; w < words_.size(); ++w) out.words_[w] ^= other.words_[w];
  return out;
}

std::vector<std::uint8_t> BitVector::to_bytes() const {
  std::vector<std::uint8_t> bytes;
  to_bytes_into(bytes);
  return bytes;
}

void BitVector::to_bytes_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  out.resize((size_ + 7) / 8, 0);
  // Bytes never straddle words (8 divides 64), so each is one shift + mask.
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t bit = i * 8;
    out[i] = static_cast<std::uint8_t>(words_[bit / kWordBits] >> (56 - bit % kWordBits));
  }
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

std::size_t BitVector::popcount() const noexcept {
  std::size_t count = 0;
  for (const auto word : words_) count += static_cast<std::size_t>(std::popcount(word));
  return count;
}

std::size_t BitVector::hamming_distance(const BitVector& other) const {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVector::hamming_distance: size mismatch");
  }
  std::size_t count = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(words_[w] ^ other.words_[w]));
  }
  return count;
}

bool BitVector::operator==(const BitVector& other) const noexcept {
  if (size_ != other.size_) return false;
  return words_ == other.words_;
}

}  // namespace jrsnd
