#include "crypto/prf.hpp"

#include <cassert>

#include "crypto/hmac.hpp"

namespace jrsnd::crypto {

std::vector<std::uint8_t> expand(const SymmetricKey& key, const std::string& info,
                                 std::size_t output_len) {
  const HmacKey prepared(key);
  return expand(prepared,
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(info.data()), info.size()),
                output_len);
}

std::vector<std::uint8_t> expand(const HmacKey& key, std::span<const std::uint8_t> info,
                                 std::size_t output_len) {
  assert(output_len <= 255 * kSha256DigestSize);
  std::vector<std::uint8_t> out;
  out.reserve(output_len);
  std::uint8_t counter = 1;
  while (out.size() < output_len) {
    // Stream info || counter into a copy of the cached inner midstate: no
    // concatenation buffer and no per-block key schedule.
    Sha256 ctx = key.inner_context();
    ctx.update(info);
    const std::uint8_t counter_byte = counter++;
    ctx.update(std::span<const std::uint8_t>(&counter_byte, 1));
    const Sha256Digest block = key.finish(ctx);
    const std::size_t take = std::min(block.size(), output_len - out.size());
    out.insert(out.end(), block.begin(), block.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return out;
}

BitVector derive_bits(const SymmetricKey& key, const std::string& info, std::size_t bit_count) {
  return derive_bits(HmacKey(key), info, bit_count);
}

BitVector derive_bits(const HmacKey& key, const std::string& info, std::size_t bit_count) {
  Sha256 ctx = key.inner_context();
  ctx.update(info);
  return derive_bits(key, ctx, bit_count);
}

BitVector derive_bits(const HmacKey& key, const Sha256& info, std::size_t bit_count) {
  assert((bit_count + 7) / 8 <= 255 * kSha256DigestSize);
  // expand()'s blocks, each stored as four big-endian words: the words
  // from_bytes() would pack expand()'s bytes into; assign_words clears
  // the bits past bit_count.
  constexpr std::size_t kWordsPerBlock = kSha256DigestSize / 8;
  BitVector bits;
  bits.assign_words(bit_count, [&](std::span<std::uint64_t> words) {
    std::uint8_t counter = 1;
    for (std::size_t w = 0; w < words.size(); w += kWordsPerBlock) {
      Sha256 ctx = info;
      ctx.update(std::span<const std::uint8_t>(&counter, 1));
      ++counter;
      const Sha256Digest block = key.finish(ctx);
      for (std::size_t j = 0; j < kWordsPerBlock && w + j < words.size(); ++j) {
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < 8; ++b) word = (word << 8) | block[8 * j + b];
        words[w + j] = word;
      }
    }
  });
  return bits;
}

SymmetricKey derive_key(const SymmetricKey& key, const std::string& label) noexcept {
  return hmac_sha256(key, label);
}

}  // namespace jrsnd::crypto
