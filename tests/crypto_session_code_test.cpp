#include "crypto/session_code.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/ibc.hpp"
#include "crypto/sha256.hpp"

namespace jrsnd::crypto {
namespace {

BitVector nonce_from(Rng& rng, std::size_t bits) {
  BitVector v(bits);
  for (std::size_t i = 0; i < bits; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

TEST(SessionCode, SymmetricInNonceOrder) {
  // A computes h_K(n_A ^ n_B); B computes h_K(n_B ^ n_A): identical.
  Rng rng(1);
  SymmetricKey key;
  key.fill(0xab);
  const BitVector na = nonce_from(rng, 20);
  const BitVector nb = nonce_from(rng, 20);
  EXPECT_EQ(derive_session_code(key, na, nb, 512), derive_session_code(key, nb, na, 512));
}

TEST(SessionCode, ProducesRequestedLength) {
  Rng rng(2);
  SymmetricKey key;
  key.fill(1);
  const BitVector na = nonce_from(rng, 20);
  const BitVector nb = nonce_from(rng, 20);
  for (const std::size_t n : {64u, 128u, 512u, 1024u}) {
    EXPECT_EQ(derive_session_code(key, na, nb, n).size(), n);
  }
}

TEST(SessionCode, KeySeparation) {
  Rng rng(3);
  SymmetricKey k1;
  k1.fill(1);
  SymmetricKey k2;
  k2.fill(2);
  const BitVector na = nonce_from(rng, 20);
  const BitVector nb = nonce_from(rng, 20);
  EXPECT_NE(derive_session_code(k1, na, nb, 512), derive_session_code(k2, na, nb, 512));
}

TEST(SessionCode, NonceSeparation) {
  Rng rng(4);
  SymmetricKey key;
  key.fill(9);
  const BitVector na = nonce_from(rng, 20);
  const BitVector nb = nonce_from(rng, 20);
  const BitVector nc = nonce_from(rng, 20);
  EXPECT_NE(derive_session_code(key, na, nb, 512), derive_session_code(key, na, nc, 512));
}

TEST(SessionCode, MismatchedNonceLengthsThrow) {
  Rng rng(5);
  SymmetricKey key{};
  const BitVector na = nonce_from(rng, 20);
  const BitVector nb = nonce_from(rng, 24);
  EXPECT_THROW((void)derive_session_code(key, na, nb, 512), std::invalid_argument);
}

TEST(SessionCode, EndToEndWithIbcAgreement) {
  // Full D-NDP derivation path: IBC pair key + both nonces.
  const IbcAuthority authority(77);
  const auto ka = authority.issue(node_id(1));
  const auto kb = authority.issue(node_id(2));
  Rng rng(6);
  const BitVector na = nonce_from(rng, 20);
  const BitVector nb = nonce_from(rng, 20);
  const BitVector code_a = derive_session_code(ka.shared_key(node_id(2)), na, nb, 512);
  const BitVector code_b = derive_session_code(kb.shared_key(node_id(1)), nb, na, 512);
  EXPECT_EQ(code_a, code_b);
  // And an eavesdropper with a different pair key derives something else.
  const auto kc = authority.issue(node_id(3));
  EXPECT_NE(derive_session_code(kc.shared_key(node_id(1)), na, nb, 512), code_a);
}

TEST(SessionCode, OutputIsBalanced) {
  Rng rng(7);
  SymmetricKey key;
  key.fill(0x5f);
  const BitVector code =
      derive_session_code(key, nonce_from(rng, 20), nonce_from(rng, 20), 4096);
  const double ones = static_cast<double>(code.popcount()) / 4096.0;
  EXPECT_GT(ones, 0.45);
  EXPECT_LT(ones, 0.55);
}

/// One SHA-256 over the codes both overloads derive for code lengths
/// {31, 64, 512, 1000} (a partial byte, one word, the paper's N, a partial
/// word) and nonce lengths {1, 20, 64, 100} (one to two words), each code
/// fed as its length and its packed bytes.
std::string derived_codes_fold() {
  Rng rng(29);
  Sha256 fold;
  const auto absorb = [&](const BitVector& code) {
    const std::uint64_t size = code.size();
    fold.update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(&size),
                                              sizeof size));
    fold.update(code.to_bytes());
  };
  for (const std::size_t nonce_bits : {1u, 20u, 64u, 100u}) {
    for (const std::size_t chips : {31u, 64u, 512u, 1000u}) {
      SymmetricKey key;
      for (auto& byte : key) byte = static_cast<std::uint8_t>(rng.next());
      const BitVector na = nonce_from(rng, nonce_bits);
      const BitVector nb = nonce_from(rng, nonce_bits);
      absorb(derive_session_code(key, na, nb, chips));
      absorb(derive_session_code(HmacKey(key), nb, na, chips));
    }
  }
  return to_hex(fold.finalize());
}

// Recorded from the library before the derivation streamed its info string
// and wrote its output words in place; any change to the bits it derives
// fails here.
constexpr const char* kDerivedCodesFold =
    "1d48b211315e580f42b2e30d5939383300cd35bb295214007fe226bbcac41b11";

TEST(SessionCode, DerivedCodesAreUnchanged) {
  EXPECT_EQ(derived_codes_fold(), kDerivedCodesFold);
}

}  // namespace
}  // namespace jrsnd::crypto
