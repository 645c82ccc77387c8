// Packed bit vector used for message payloads and crypto digests.
//
// Wire messages in JR-SND are bit-granular (HELLO is l_t + l_id = 21 bits by
// Table I), so byte-oriented containers are not a natural fit. BitVector
// stores bits MSB-first within each 64-bit word and supports append of
// arbitrary-width fields, slicing, and XOR — everything the message codecs
// and the session-code derivation need.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace jrsnd {

class BitVector {
 public:
  BitVector() = default;

  /// A vector of `count` zero bits.
  explicit BitVector(std::size_t count);

  /// Builds from bytes, MSB of bytes[0] first (eight bytes per word).
  static BitVector from_bytes(std::span<const std::uint8_t> bytes);

  /// Builds from a string of '0'/'1' characters (test convenience).
  static BitVector from_string(const std::string& bits);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Drops every bit but keeps the allocated word storage — the reset half
  /// of the reuse pattern the transmit scratch arena is built on.
  void clear() noexcept {
    words_.clear();
    size_ = 0;
  }

  /// Ensures capacity for `bit_count` bits without changing contents, so a
  /// later append/push_back run up to that size cannot allocate.
  void reserve(std::size_t bit_count) { words_.reserve((bit_count + kWordBits - 1) / kWordBits); }

  /// Shrinks to the first `new_size` bits (no-op when already shorter).
  /// Re-zeroes the slack past the new end to preserve the invariant.
  void truncate(std::size_t new_size) noexcept;

  /// Replaces the contents with the bitwise complement of `other`, reusing
  /// this vector's storage (no allocation once capacity suffices).
  void assign_inverted(const BitVector& other);

  [[nodiscard]] bool get(std::size_t index) const;
  void set(std::size_t index, bool value);
  /// Flips the bit at `index` (models a channel bit error).
  void flip(std::size_t index);

  /// Replaces the contents with `bit_count` bits whose packed words
  /// (MSB-first, as words() lays them out) `fill` writes into the span it is
  /// handed; bits it leaves past bit_count in the last word are cleared.
  /// Allocation-free once capacity covers bit_count — the word-at-a-time
  /// form of clear() plus append_uint() per word.
  template <typename Fill>
  void assign_words(std::size_t bit_count, Fill&& fill) {
    size_ = bit_count;
    words_.resize((bit_count + kWordBits - 1) / kWordBits);
    fill(std::span<std::uint64_t>(words_));
    if (const std::size_t tail = bit_count % kWordBits; tail != 0) {
      words_.back() &= ~std::uint64_t{0} << (kWordBits - tail);
    }
  }

  /// Appends a single bit.
  void push_back(bool bit);

  /// Appends the low `width` bits of `value`, most significant first.
  /// Precondition: width <= 64.
  void append_uint(std::uint64_t value, std::size_t width) {
    assert(width <= 64);
    if (width == 0) return;
    if (width < kWordBits) value &= (std::uint64_t{1} << width) - 1;
    // Word-level splice of the field, MSB-first: align the bits to the top
    // of a word, then OR them across the (at most two) destination words.
    const std::uint64_t top = value << (kWordBits - width);
    const std::size_t offset = size_ % kWordBits;
    const std::size_t wi = size_ / kWordBits;
    size_ += width;
    // A field of at most 64 bits adds at most one word.
    if (words_.size() * kWordBits < size_) words_.push_back(0);
    words_[wi] |= top >> offset;
    if (offset + width > kWordBits) words_[wi + 1] |= top << (kWordBits - offset);
  }

  /// Appends `count` zero bits (the slack past size() is already zero, so
  /// this only grows the word storage).
  void append_zeros(std::size_t count) {
    size_ += count;
    words_.resize((size_ + kWordBits - 1) / kWordBits, 0);
  }

  /// Appends all bits of `other` (word-level, any alignment).
  void append(const BitVector& other);

  /// A copy with every bit flipped.
  [[nodiscard]] BitVector inverted() const;

  /// Reads `width` bits starting at `offset` as an unsigned integer
  /// (MSB first). Precondition: offset + width <= size(), width <= 64.
  /// Word-level: one or two word loads, a shift, and a mask.
  [[nodiscard]] std::uint64_t read_uint(std::size_t offset, std::size_t width) const {
    assert(width <= 64);
    assert(offset + width <= size_);
    if (width == 0) return 0;
    const std::size_t wi = offset / kWordBits;
    const std::size_t shift = offset % kWordBits;
    // The field's bits, left-aligned: the rest of word wi, then (when the
    // field straddles) the head of word wi + 1, which exists because
    // offset + width <= size_.
    std::uint64_t top = words_[wi] << shift;
    if (shift + width > kWordBits) top |= words_[wi + 1] >> (kWordBits - shift);
    return top >> (kWordBits - width);
  }

  /// The sub-vector [offset, offset + count).
  [[nodiscard]] BitVector slice(std::size_t offset, std::size_t count) const;

  /// Bitwise XOR; both operands must have equal size.
  [[nodiscard]] BitVector xor_with(const BitVector& other) const;

  /// Packs into bytes, zero-padding the final partial byte.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;

  /// to_bytes into a caller-owned buffer (cleared and refilled); allocation
  /// free once the buffer's capacity covers (size() + 7) / 8 bytes.
  void to_bytes_into(std::vector<std::uint8_t>& out) const;

  /// '0'/'1' string (debugging / tests).
  [[nodiscard]] std::string to_string() const;

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Hamming distance to `other`; both must have equal size.
  /// Word-level XOR + popcount, no allocation.
  [[nodiscard]] std::size_t hamming_distance(const BitVector& other) const;

  /// The packed 64-bit words, MSB-first within each word. Bits beyond
  /// size() in the final word are guaranteed zero (class invariant) — the
  /// dsss sync kernel relies on this to correlate against raw words.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  bool operator==(const BitVector& other) const noexcept;

 private:
  static constexpr std::size_t kWordBits = 64;
  [[nodiscard]] static std::size_t word_index(std::size_t bit) noexcept { return bit / kWordBits; }
  [[nodiscard]] static std::uint64_t bit_mask(std::size_t bit) noexcept {
    return 1ULL << (kWordBits - 1 - (bit % kWordBits));
  }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace jrsnd
