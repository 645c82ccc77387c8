// PRF / KDF utilities on top of HMAC-SHA-256.
//
// expand() implements an HKDF-expand-style construction producing arbitrary
// length output; derive_bits() feeds BitVector consumers such as the
// session-spread-code derivation, where the paper needs an N-bit (N = 512)
// pseudorandom string from a 256-bit MAC key.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bit_vector.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace jrsnd::crypto {

/// A symmetric key as used throughout the protocols (always 32 bytes here).
using SymmetricKey = Sha256Digest;

/// HKDF-expand style: out(i) = HMAC(key, info || counter_i), concatenated and
/// truncated to `output_len` bytes. Precondition: output_len <= 255 * 32.
[[nodiscard]] std::vector<std::uint8_t> expand(const SymmetricKey& key, const std::string& info,
                                               std::size_t output_len);

/// expand() over a prepared key: the HMAC midstates are reused across the
/// output blocks (and across calls when the caller keeps the HmacKey), and
/// the per-block counter is streamed after `info` instead of concatenated
/// into a fresh buffer. Byte-identical output to the SymmetricKey overload.
[[nodiscard]] std::vector<std::uint8_t> expand(const HmacKey& key,
                                               std::span<const std::uint8_t> info,
                                               std::size_t output_len);

/// Derives `bit_count` pseudorandom bits keyed by `key` over `info`.
[[nodiscard]] BitVector derive_bits(const SymmetricKey& key, const std::string& info,
                                    std::size_t bit_count);

/// derive_bits() over a prepared key; same bits as the SymmetricKey form.
[[nodiscard]] BitVector derive_bits(const HmacKey& key, const std::string& info,
                                    std::size_t bit_count);

/// derive_bits() with the info already absorbed: `info` is
/// key.inner_context() after update()s with the info bytes, so a caller can
/// stream an info string it never builds. Each block HMAC(info || counter)
/// is written straight into the result's words; the result's storage is
/// the only allocation.
[[nodiscard]] BitVector derive_bits(const HmacKey& key, const Sha256& info,
                                    std::size_t bit_count);

/// Derives a fresh 32-byte key: HMAC(key, label).
[[nodiscard]] SymmetricKey derive_key(const SymmetricKey& key, const std::string& label) noexcept;

}  // namespace jrsnd::crypto
