// 8-lane multi-buffer SHA-256 compression (handshake-flood hardening).
//
// SHA-256's 64 rounds form one long dependency chain, so a single message
// cannot be vectorized — but eight *independent* single-block compressions
// can: hold each state word across eight lanes of a 256-bit vector and every
// round's adds/rotates/boolean functions cover all eight messages at once.
// This is exactly the shape of the batched MAC stage in crypto::VerifyQueue:
// under a handshake flood the receiver has many pending AUTH frames, each
// needing an independent short-message HMAC, and batching is what makes the
// lanes available in the first place (the one-at-a-time path never has more
// than one compression in flight).
//
// The lanes dispatch on the process-wide SIMD level shared with the batched
// sync correlator (common/cpu_features.hpp: one probe, one JRSND_SIMD
// override, one set_simd_backend setter): AVX2 lanes when the level is avx2
// or avx512, the scalar reference otherwise. Every backend computes the
// identical FIPS 180-4 function — the scalar reference *is*
// crypto::sha256_compress per lane — so digests are bit-identical however
// the dispatch lands (pinned by tests/crypto_sha256_test.cpp and the
// dos_throughput identity gate).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/sha256.hpp"

namespace jrsnd::crypto {

/// Lanes per multi-buffer compression call (AVX2: eight 32-bit state words
/// per 256-bit register).
inline constexpr std::size_t kSha256Lanes = 8;

/// Backend for the multi-buffer compression.
enum class HashBackend : std::uint8_t { kScalar = 0, kAvx2 = 1 };

[[nodiscard]] const char* hash_backend_name(HashBackend backend) noexcept;

/// The backend sha256_compress_x8 dispatches to: kAvx2 when simd_backend()
/// is kAvx2 or kAvx512 (an AVX-512 host admits AVX2), kScalar otherwise.
/// Holds no state of its own.
[[nodiscard]] HashBackend hash_backend();

/// Eight independent single-block compressions:
/// states[l] <- Compress(states[l], blocks[l]) for every lane l. Bit-
/// identical to crypto::sha256_compress per lane on every backend.
void sha256_compress_x8(std::array<std::uint32_t, 8> states[kSha256Lanes],
                        const std::uint8_t blocks[kSha256Lanes][64]) noexcept;

}  // namespace jrsnd::crypto
