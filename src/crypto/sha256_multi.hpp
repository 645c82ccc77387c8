// Compatibility shim for bench/e2e, whose `simd_crypto` host fact reads
// these names. They forward to the one SHA-256 backend predicate
// (crypto/sha256.hpp), the backend every MAC runs on, so the fact reads
// "sha-ni" or "scalar". The shim goes with ROADMAP item 3's move of the
// bench onto core::World.
#pragma once

#include "crypto/sha256.hpp"

namespace jrsnd::crypto {

using HashBackend = Sha256Backend;

[[nodiscard]] inline const char* hash_backend_name(HashBackend backend) noexcept {
  return sha256_backend_name(backend);
}

[[nodiscard]] inline HashBackend hash_backend() { return sha256_backend(); }

}  // namespace jrsnd::crypto
