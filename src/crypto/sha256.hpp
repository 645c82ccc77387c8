// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the sole hash primitive in the repository: HMAC, the PRF/KDF, the
// pairing-oracle IBC, and the session-spread-code derivation h_K(.) of the
// paper are all built on it. Verified against the FIPS test vectors in
// tests/crypto_sha256_test.cpp.
//
// The compression has two backends, chosen per call by sha256_backend():
// SHA-NI (the x86 SHA extensions) when the CPU has them and the process-wide
// SIMD level (common/cpu_features.hpp) is not scalar, and the portable
// scalar body otherwise — so JRSND_SIMD=scalar or
// set_simd_backend(kScalar) forces the scalar body at once. Both compute the
// identical function; digests do not depend on the backend.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace jrsnd::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Backend of the single-stream compression.
enum class Sha256Backend : std::uint8_t { kScalar = 0, kShaNi = 1 };

[[nodiscard]] const char* sha256_backend_name(Sha256Backend backend) noexcept;

/// The backend sha256_compress runs on this call: kShaNi when
/// cpu_features().sha is set and simd_backend() is not kScalar, kScalar
/// otherwise. sha256_compress dispatches on this same predicate, so the name
/// it reports is the backend that runs.
[[nodiscard]] Sha256Backend sha256_backend();

/// One FIPS 180-4 compression: folds a single 64-byte block into `state`.
/// The low-level primitive Sha256 runs per block — exposed so the multi-
/// buffer lanes (crypto/sha256_multi.hpp) share the exact reference
/// compression on their scalar backend.
void sha256_compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* block) noexcept;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() noexcept;

  /// Absorbs more message bytes.
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(const std::string& text) noexcept;

  /// Finalizes and returns the digest. The context must not be updated
  /// afterwards (reset() first to reuse).
  [[nodiscard]] Sha256Digest finalize() noexcept;

  /// Returns the context to its initial state.
  void reset() noexcept;

  /// The raw chaining value. A resumable midstate only when the absorbed
  /// length is a multiple of 64 bytes (internal buffer empty) — the hook the
  /// HMAC multi-buffer path uses to seed its lanes from cached midstates.
  [[nodiscard]] const std::array<std::uint32_t, 8>& chaining_state() const noexcept {
    return state_;
  }

  /// One-shot convenience.
  [[nodiscard]] static Sha256Digest hash(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] static Sha256Digest hash(const std::string& text) noexcept;

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace jrsnd::crypto
