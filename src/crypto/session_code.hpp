// Session-spread-code derivation (paper §V-B, final D-NDP step):
//
//   C_AB = h_{K_AB}(n_A XOR n_B)
//
// where h_K(.) is a keyed cryptographic hash producing an N-bit output used
// as a fresh DSSS spread code known only to A and B. Both sides XOR the two
// nonces, so the derivation is symmetric (C_AB == C_BA) regardless of which
// side initiated.
#pragma once

#include <cstddef>

#include "common/bit_vector.hpp"
#include "crypto/prf.hpp"

namespace jrsnd::crypto {

/// Derives the N-bit session spread code from the pairwise key's HMAC
/// schedule and the two session nonces. `nonce_a` and `nonce_b` must have
/// equal bit length (l_n bits each per Table I).
[[nodiscard]] BitVector derive_session_code(const HmacKey& pair_key, const BitVector& nonce_a,
                                            const BitVector& nonce_b,
                                            std::size_t code_length_chips);

/// Same code from the raw pairwise key (builds the schedule per call).
[[nodiscard]] BitVector derive_session_code(const SymmetricKey& pair_key,
                                            const BitVector& nonce_a, const BitVector& nonce_b,
                                            std::size_t code_length_chips);

}  // namespace jrsnd::crypto
