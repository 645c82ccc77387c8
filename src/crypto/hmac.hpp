// HMAC-SHA-256 (RFC 2104 / FIPS 198-1), built on the from-scratch SHA-256.
//
// Used directly for the MAC f_K(.) in the D-NDP authentication handshake and
// as the PRF underlying key derivation and the pairing oracle.
//
// HmacKey caches the HMAC *midstates*: the SHA-256 compression states after
// absorbing the ipad and opad blocks, which depend only on the key. A plain
// hmac_sha256 call runs four compressions for a short message (ipad block,
// message block, opad block, inner-digest block); with cached midstates the
// same MAC is two. Every repeated-key caller — Sealer/Unsealer tags, the
// PRF's per-block HMACs — holds an HmacKey instead of re-deriving the key
// schedule per call.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"

namespace jrsnd::crypto {

/// Computes HMAC-SHA-256(key, message).
[[nodiscard]] Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                                       std::span<const std::uint8_t> message) noexcept;

/// Convenience overload for string messages.
[[nodiscard]] Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                                       const std::string& message) noexcept;

/// A key prepared for repeated HMAC-SHA-256 use: the ipad/opad compression
/// states are computed once at construction and copied per MAC. Results are
/// byte-identical to hmac_sha256 for every key and message.
class HmacKey {
 public:
  /// Midstates of the empty key (valid, rarely useful).
  HmacKey() noexcept : HmacKey(std::span<const std::uint8_t>{}) {}

  explicit HmacKey(std::span<const std::uint8_t> key) noexcept;

  /// HMAC-SHA-256(key, message) from the cached midstates.
  [[nodiscard]] Sha256Digest mac(std::span<const std::uint8_t> message) const noexcept;
  [[nodiscard]] Sha256Digest mac(const std::string& message) const noexcept;

  /// Streaming form for multi-part messages: start with inner_context(),
  /// update() it with each part, then finish() — no concatenation buffer.
  [[nodiscard]] Sha256 inner_context() const noexcept { return inner_; }
  [[nodiscard]] Sha256Digest finish(Sha256& inner_ctx) const noexcept;

 private:
  Sha256 inner_;  ///< state after absorbing key ^ ipad
  Sha256 outer_;  ///< state after absorbing key ^ opad
};

/// Constant-time digest comparison (avoids timing side channels in the
/// verification paths even though the simulation itself is not attackable).
[[nodiscard]] bool digest_equal(const Sha256Digest& a, const Sha256Digest& b) noexcept;

}  // namespace jrsnd::crypto
