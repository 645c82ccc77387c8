#include "crypto/session_code.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>

namespace jrsnd::crypto {

BitVector derive_session_code(const HmacKey& pair_key, const BitVector& nonce_a,
                              const BitVector& nonce_b, std::size_t code_length_chips) {
  if (nonce_a.size() != nonce_b.size()) {
    throw std::invalid_argument("derive_session_code: nonce length mismatch");
  }
  // Domain-separated PRF expansion of the XORed nonces to N bits. The info
  // string "session-code:" || hex(n_A ^ n_B as bytes) is never built: it is
  // streamed into the inner midstate from a stack buffer, a word at a time.
  static constexpr std::string_view kLabel = "session-code:";
  static constexpr char kDigits[] = "0123456789abcdef";
  Sha256 info = pair_key.inner_context();
  info.update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(kLabel.data()),
                                            kLabel.size()));
  const std::span<const std::uint64_t> words_a = nonce_a.words();
  const std::span<const std::uint64_t> words_b = nonce_b.words();
  std::size_t bytes_left = (nonce_a.size() + 7) / 8;
  std::array<std::uint8_t, 16> hex;
  for (std::size_t w = 0; bytes_left > 0; ++w) {
    const std::uint64_t mixed = words_a[w] ^ words_b[w];
    const std::size_t take = std::min<std::size_t>(8, bytes_left);
    for (std::size_t b = 0; b < take; ++b) {
      const auto byte = static_cast<std::uint8_t>(mixed >> (56 - 8 * b));
      hex[2 * b] = static_cast<std::uint8_t>(kDigits[byte >> 4]);
      hex[2 * b + 1] = static_cast<std::uint8_t>(kDigits[byte & 0x0f]);
    }
    info.update(std::span<const std::uint8_t>(hex.data(), 2 * take));
    bytes_left -= take;
  }
  return derive_bits(pair_key, info, code_length_chips);
}

BitVector derive_session_code(const SymmetricKey& pair_key, const BitVector& nonce_a,
                              const BitVector& nonce_b, std::size_t code_length_chips) {
  return derive_session_code(HmacKey(pair_key), nonce_a, nonce_b, code_length_chips);
}

}  // namespace jrsnd::crypto
