#include "crypto/ibc.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace jrsnd::crypto {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) { return {s.begin(), s.end()}; }

TEST(Ibc, SharedKeyIsSymmetric) {
  const IbcAuthority authority(1234);
  const IbcPrivateKey ka = authority.issue(node_id(1));
  const IbcPrivateKey kb = authority.issue(node_id(2));
  EXPECT_EQ(ka.shared_key(node_id(2)), kb.shared_key(node_id(1)));
}

TEST(Ibc, DistinctPairsGetDistinctKeys) {
  const IbcAuthority authority(1);
  const IbcPrivateKey ka = authority.issue(node_id(1));
  EXPECT_NE(ka.shared_key(node_id(2)), ka.shared_key(node_id(3)));
}

TEST(Ibc, ThirdPartyDerivesDifferentKey) {
  // C's key agreement with A or B never matches K_AB.
  const IbcAuthority authority(7);
  const IbcPrivateKey ka = authority.issue(node_id(1));
  const IbcPrivateKey kc = authority.issue(node_id(3));
  const SymmetricKey k_ab = ka.shared_key(node_id(2));
  EXPECT_NE(kc.shared_key(node_id(1)), k_ab);
  EXPECT_NE(kc.shared_key(node_id(2)), k_ab);
}

TEST(Ibc, DifferentAuthoritiesAreIncompatible) {
  const IbcAuthority auth1(100);
  const IbcAuthority auth2(200);
  const IbcPrivateKey ka1 = auth1.issue(node_id(1));
  const IbcPrivateKey ka2 = auth2.issue(node_id(1));
  EXPECT_NE(ka1.shared_key(node_id(2)), ka2.shared_key(node_id(2)));
}

TEST(Ibc, AuthoritySetupIsDeterministic) {
  const IbcAuthority auth1(55);
  const IbcAuthority auth2(55);
  EXPECT_EQ(auth1.issue(node_id(9)).shared_key(node_id(10)),
            auth2.issue(node_id(9)).shared_key(node_id(10)));
}

TEST(Ibc, SignatureVerifiesAgainstSignerId) {
  const IbcAuthority authority(42);
  const IbcPrivateKey ka = authority.issue(node_id(17));
  const auto msg = bytes("m-ndp request");
  const IbcSignature sig = ka.sign(msg);
  EXPECT_TRUE(authority.oracle()->verify(node_id(17), msg, sig));
}

TEST(Ibc, SignatureRejectsWrongSigner) {
  const IbcAuthority authority(42);
  const IbcPrivateKey ka = authority.issue(node_id(17));
  const auto msg = bytes("m-ndp request");
  const IbcSignature sig = ka.sign(msg);
  EXPECT_FALSE(authority.oracle()->verify(node_id(18), msg, sig));
}

TEST(Ibc, SignatureRejectsTamperedMessage) {
  const IbcAuthority authority(42);
  const IbcPrivateKey ka = authority.issue(node_id(17));
  const IbcSignature sig = ka.sign(bytes("original"));
  EXPECT_FALSE(authority.oracle()->verify(node_id(17), bytes("tampered"), sig));
}

TEST(Ibc, SignatureRejectsTamperedTag) {
  const IbcAuthority authority(42);
  const IbcPrivateKey ka = authority.issue(node_id(17));
  const auto msg = bytes("payload");
  IbcSignature sig = ka.sign(msg);
  sig.tag[0] ^= 0x01;
  EXPECT_FALSE(authority.oracle()->verify(node_id(17), msg, sig));
}

TEST(Ibc, ForgeryWithOtherPrivateKeyFails) {
  // A compromised node cannot sign on behalf of another identity.
  const IbcAuthority authority(42);
  const IbcPrivateKey attacker = authority.issue(node_id(666));
  const auto msg = bytes("i am node 1");
  const IbcSignature forged = attacker.sign(msg);
  EXPECT_FALSE(authority.oracle()->verify(node_id(1), msg, forged));
}

TEST(Ibc, MacBindsKeyAndMessage) {
  const IbcAuthority authority(8);
  const SymmetricKey k_ab = authority.issue(node_id(1)).shared_key(node_id(2));
  const SymmetricKey k_ac = authority.issue(node_id(1)).shared_key(node_id(3));
  const auto msg = bytes("auth");
  EXPECT_EQ(compute_mac(k_ab, msg), compute_mac(k_ab, msg));
  EXPECT_NE(compute_mac(k_ab, msg), compute_mac(k_ac, msg));
  EXPECT_NE(compute_mac(k_ab, msg), compute_mac(k_ab, bytes("auth2")));
}

// --- signer schedules -----------------------------------------------------------

/// The signature as the substrate defines it, computed independently:
/// HMAC(HMAC(master, "sig" || id), message), master = SHA-256 of the seed.
Sha256Digest raw_signature(std::uint64_t seed, std::uint32_t id,
                           std::span<const std::uint8_t> message) {
  std::vector<std::uint8_t> seed_bytes(8);
  for (int i = 0; i < 8; ++i) {
    seed_bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(seed >> (56 - 8 * i));
  }
  const Sha256Digest master = Sha256::hash(seed_bytes);
  const std::vector<std::uint8_t> input = {'s',
                                           'i',
                                           'g',
                                           static_cast<std::uint8_t>(id >> 24),
                                           static_cast<std::uint8_t>(id >> 16),
                                           static_cast<std::uint8_t>(id >> 8),
                                           static_cast<std::uint8_t>(id)};
  return hmac_sha256(hmac_sha256(master, input), message);
}

TEST(IbcSignerKey, ScheduleFormsEqualTheRawSignature) {
  const IbcAuthority authority(4242);
  const std::vector<std::uint8_t> message = bytes("an m-ndp body that spans two blocks ......."
                                                  "..........................................");
  for (const std::uint32_t id : {0u, 7u, 65535u}) {
    const IbcPrivateKey key = authority.issue(node_id(id));
    const SignerKey schedule = authority.oracle()->signer_key(node_id(id));
    EXPECT_EQ(schedule.id, node_id(id));
    const Sha256Digest want = raw_signature(4242, id, message);
    const IbcSignature by_schedule = key.sign(schedule, message, message.size() * 8);
    EXPECT_EQ(by_schedule.tag, want) << id;
    EXPECT_EQ(key.sign(message).tag, want) << id;
    EXPECT_TRUE(PairingOracle::verify(schedule, message, message.size() * 8, by_schedule));
    EXPECT_TRUE(authority.oracle()->verify(node_id(id), message, by_schedule));
  }
}

TEST(IbcSignerKey, BitPrefixSignsThePrefixPackedAlone) {
  // Signing the first `bits` bits of a longer buffer must equal signing the
  // prefix's own bytes (final partial byte zero-padded), for every length.
  const IbcAuthority authority(5);
  const IbcPrivateKey key = authority.issue(node_id(3));
  const SignerKey schedule = key.signing_key();
  std::vector<std::uint8_t> buffer(70);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>(0xA7 ^ (i * 29));
  }
  for (std::size_t bits = 0; bits <= buffer.size() * 8; ++bits) {
    std::vector<std::uint8_t> alone(buffer.begin(),
                                    buffer.begin() + static_cast<std::ptrdiff_t>((bits + 7) / 8));
    if (bits % 8 != 0) alone.back() &= static_cast<std::uint8_t>(0xFF << (8 - bits % 8));
    const IbcSignature sig = key.sign(schedule, buffer, bits);
    ASSERT_EQ(sig.tag, raw_signature(5, 3, alone)) << bits;
    ASSERT_TRUE(PairingOracle::verify(schedule, buffer, bits, sig)) << bits;
    if (bits >= 8) {  // one byte shorter is another message
      ASSERT_FALSE(PairingOracle::verify(schedule, buffer, bits - 8, sig)) << bits;
    }
  }
}

TEST(IbcSignerKey, AScheduleForAnotherIdNeverForges) {
  // Handing node 2's key node 1's schedule must not yield node 1's
  // signature: the key signs as the id it was issued to.
  const IbcAuthority authority(6);
  const IbcPrivateKey key2 = authority.issue(node_id(2));
  const SignerKey schedule1 = authority.oracle()->signer_key(node_id(1));
  const auto msg = bytes("claimed to be node 1");
  const IbcSignature sig = key2.sign(schedule1, msg, msg.size() * 8);
  EXPECT_FALSE(PairingOracle::verify(schedule1, msg, msg.size() * 8, sig));
  EXPECT_EQ(sig, key2.sign(msg));
}

class IbcPairSweep : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(IbcPairSweep, AgreementHoldsForArbitraryIds) {
  const auto [ia, ib] = GetParam();
  const IbcAuthority authority(999);
  EXPECT_EQ(authority.issue(node_id(ia)).shared_key(node_id(ib)),
            authority.issue(node_id(ib)).shared_key(node_id(ia)));
}

INSTANTIATE_TEST_SUITE_P(Pairs, IbcPairSweep,
                         ::testing::Values(std::make_pair(0u, 1u), std::make_pair(5u, 5000u),
                                           std::make_pair(65535u, 2u),
                                           std::make_pair(123u, 321u),
                                           std::make_pair(1999u, 0u)));

}  // namespace
}  // namespace jrsnd::crypto
