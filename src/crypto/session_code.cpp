#include "crypto/session_code.hpp"

#include <stdexcept>

#include "common/hex.hpp"

namespace jrsnd::crypto {

BitVector derive_session_code(const HmacKey& pair_key, const BitVector& nonce_a,
                              const BitVector& nonce_b, std::size_t code_length_chips) {
  if (nonce_a.size() != nonce_b.size()) {
    throw std::invalid_argument("derive_session_code: nonce length mismatch");
  }
  const BitVector mixed = nonce_a.xor_with(nonce_b);
  // Domain-separated PRF expansion of the XORed nonces to N bits.
  const std::string info = "session-code:" + to_hex(mixed.to_bytes());
  return derive_bits(pair_key, info, code_length_chips);
}

BitVector derive_session_code(const SymmetricKey& pair_key, const BitVector& nonce_a,
                              const BitVector& nonce_b, std::size_t code_length_chips) {
  return derive_session_code(HmacKey(pair_key), nonce_a, nonce_b, code_length_chips);
}

}  // namespace jrsnd::crypto
