// Robustness: decoders must never crash, loop, or accept garbage as valid
// on adversarial input — every bit pattern a jammer or attacker could put
// on the air. Random buffers, truncations, bit flips, and hostile length
// fields are thrown at every message codec.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/messages.hpp"
#include "crypto/ibc.hpp"
#include "fault/faulty_phy.hpp"

namespace jrsnd::core {
namespace {

const WireConfig kCfg{};

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

/// Signature j of `body` by `signer`'s key.
crypto::IbcSignature sign_prefix(const crypto::IbcAuthority& ibc, NodeId signer,
                                 const SignedBody& body, std::size_t j) {
  const crypto::IbcPrivateKey key = ibc.issue(signer);
  return body.sign(key, key.signing_key(), j);
}

/// Whether `sig` is `signer`'s signature j over `body`.
bool verify_prefix(const crypto::IbcAuthority& ibc, NodeId signer, const SignedBody& body,
                   std::size_t j, const crypto::IbcSignature& sig) {
  return body.verify(ibc.oracle()->signer_key(signer), j, sig);
}

TEST(MessageFuzz, RandomBuffersNeverCrashAnyDecoder) {
  Rng rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.uniform(4000);
    const BitVector junk = random_bits(rng, len);
    (void)HelloMessage::decode(junk, kCfg);
    (void)ConfirmMessage::decode(junk, kCfg);
    (void)AuthMessage::decode(junk, kCfg);
    (void)MndpRequest::decode(junk, kCfg);
    (void)MndpResponse::decode(junk, kCfg);
    (void)peek_type(junk, kCfg);
  }
}

TEST(MessageFuzz, EveryTruncationOfValidHelloRejected) {
  const BitVector bits = HelloMessage{node_id(7)}.encode(kCfg);
  for (std::size_t cut = 0; cut < bits.size(); ++cut) {
    EXPECT_FALSE(HelloMessage::decode(bits.slice(0, cut), kCfg).has_value()) << cut;
  }
}

TEST(MessageFuzz, EveryTruncationOfValidRequestRejected) {
  Rng rng(2);
  const crypto::IbcAuthority authority(1);
  MndpRequest req;
  req.source = node_id(1);
  req.source_neighbors = {node_id(2), node_id(3)};
  req.nonce = random_bits(rng, kCfg.l_n);
  req.nu = 2;
  req.source_signature = sign_prefix(authority, node_id(1), SignedBody(req, kCfg), 0);
  HopRecord hop;
  hop.id = node_id(2);
  hop.neighbors = {node_id(4)};
  req.hops.push_back(hop);
  req.hops.back().signature = sign_prefix(authority, node_id(2), SignedBody(req, kCfg), 1);

  const BitVector bits = req.encode(kCfg);
  // Check every 7th truncation (full sweep is ~2k decodes of ~2kb each).
  for (std::size_t cut = 0; cut < bits.size(); cut += 7) {
    EXPECT_FALSE(MndpRequest::decode(bits.slice(0, cut), kCfg).has_value()) << cut;
  }
}

TEST(MessageFuzz, HostileListCountIsBounded) {
  // Forge a request whose neighbor-list count field claims 65535 entries
  // but whose body ends immediately: must reject, not allocate/overread.
  BitVector bits;
  bits.append_uint(static_cast<std::uint64_t>(MessageType::MndpRequest), kCfg.l_t);
  bits.append_uint(1, kCfg.l_id);       // source
  bits.append_uint(0xffff, 16);         // list count: 65535
  EXPECT_FALSE(MndpRequest::decode(bits, kCfg).has_value());
}

TEST(MessageFuzz, HostileHopCountIsBounded) {
  Rng rng(3);
  const crypto::IbcAuthority authority(1);
  MndpRequest req;
  req.source = node_id(1);
  req.nonce = random_bits(rng, kCfg.l_n);
  req.nu = 2;
  req.source_signature = sign_prefix(authority, node_id(1), SignedBody(req, kCfg), 0);
  BitVector bits = req.encode(kCfg);
  // The hop-count byte is the last 8 bits; claim 255 hops with no bodies.
  for (std::size_t i = bits.size() - 8; i < bits.size(); ++i) bits.set(i, true);
  EXPECT_FALSE(MndpRequest::decode(bits, kCfg).has_value());
}

TEST(MessageFuzz, SingleBitFlipsNeverValidateAuth) {
  // Any single bit flip in an Auth message must fail MAC verification
  // (flips in the MAC wire bits themselves included).
  Rng rng(4);
  crypto::SymmetricKey key;
  key.fill(0x61);
  const AuthMessage msg = AuthMessage::make(node_id(3), random_bits(rng, kCfg.l_n), key, kCfg);
  const BitVector bits = msg.encode(kCfg);
  for (std::size_t flip = 0; flip < bits.size(); flip += 3) {
    BitVector mutated = bits;
    mutated.flip(flip);
    const auto decoded = AuthMessage::decode(mutated, kCfg);
    if (!decoded.has_value()) continue;  // type tag destroyed: fine
    EXPECT_FALSE(decoded->verify(key, kCfg)) << "flip " << flip;
  }
}

TEST(MessageFuzz, SingleBitFlipsNeverValidateRequestSignature) {
  Rng rng(5);
  const crypto::IbcAuthority authority(2);
  MndpRequest req;
  req.source = node_id(9);
  req.source_neighbors = {node_id(1)};
  req.nonce = random_bits(rng, kCfg.l_n);
  req.nu = 3;
  req.source_signature = sign_prefix(authority, node_id(9), SignedBody(req, kCfg), 0);
  const BitVector bits = req.encode(kCfg);
  const std::size_t sig_tag_end =
      kCfg.l_t + kCfg.l_id + 16 + 16 + kCfg.l_n + kCfg.l_nu + 256;
  // Flips in the signed region or the signature tag must break verification.
  for (std::size_t flip = 0; flip < sig_tag_end; flip += 5) {
    BitVector mutated = bits;
    mutated.flip(flip);
    const auto decoded = MndpRequest::decode(mutated, kCfg);
    if (!decoded.has_value()) continue;
    EXPECT_FALSE(verify_prefix(authority, decoded->source, SignedBody(*decoded, kCfg), 0,
                               decoded->source_signature))
        << "flip " << flip;
  }
}

/// Inner PHY for the fault-driven fuzz harness: delivers verbatim.
class EchoPhy final : public PhyModel {
 public:
  void begin_subsession(NodeId, NodeId, CodeId) override {}
  std::optional<BitVector> transmit(NodeId, NodeId, TxCode, TxClass,
                                    const BitVector& payload) override {
    return payload;
  }
};

TEST(MessageFuzz, FaultyPhyMutationsNeverCrashAnyDecoder) {
  // Drive encoded valid messages of every type through a FaultyPhy with the
  // whole mutation palette turned up — bit-flip bursts, truncation,
  // duplication, reordering — and feed whatever comes out to every decoder.
  // Nothing may crash, loop, or trip UB; that is exactly the garbage a
  // hostile channel hands the receive path.
  const crypto::IbcAuthority authority(4);
  Rng rng(7);

  MndpRequest req;
  req.source = node_id(1);
  req.source_neighbors = {node_id(2), node_id(3)};
  req.nonce = random_bits(rng, kCfg.l_n);
  req.nu = 2;
  req.source_signature = sign_prefix(authority, node_id(1), SignedBody(req, kCfg), 0);

  crypto::SymmetricKey key;
  key.fill(0x42);
  const std::vector<BitVector> corpus{
      HelloMessage{node_id(7)}.encode(kCfg),
      ConfirmMessage{node_id(8)}.encode(kCfg),
      AuthMessage::make(node_id(9), random_bits(rng, kCfg.l_n), key, kCfg).encode(kCfg),
      req.encode(kCfg),
  };

  fault::FaultPlan plan;
  plan.seed = 99;
  plan.corrupt = 0.6;
  plan.corrupt_bits = 17;
  plan.truncate = 0.4;
  plan.duplicate = 0.3;
  plan.reorder = 0.3;
  EchoPhy inner;
  fault::FaultyPhy phy(inner, plan);

  for (std::uint32_t trial = 0; trial < 1500; ++trial) {
    const BitVector& msg = corpus[trial % corpus.size()];
    const auto rx = phy.transmit(node_id(trial % 5), node_id(5 + trial % 3), TxCode{},
                                 TxClass::SessionUnicast, msg);
    if (!rx.has_value()) continue;
    (void)peek_type(*rx, kCfg);
    (void)HelloMessage::decode(*rx, kCfg);
    (void)ConfirmMessage::decode(*rx, kCfg);
    (void)MndpRequest::decode(*rx, kCfg);
    (void)MndpResponse::decode(*rx, kCfg);
    const auto auth = AuthMessage::decode(*rx, kCfg);
    if (auth.has_value() && *rx != corpus[2]) {
      // A mutated Auth that still decodes must never pass its MAC.
      EXPECT_FALSE(auth->verify(key, kCfg)) << "trial " << trial;
    }
  }
  // The plan actually fired across the palette, so the sweep was not vacuous.
  const auto& totals = phy.totals();
  EXPECT_GT(totals.corrupted, 0u);
  EXPECT_GT(totals.truncated, 0u);
  EXPECT_GT(totals.duplicated, 0u);
  EXPECT_GT(totals.reordered, 0u);
}

TEST(MessageFuzz, RoundTripSurvivesExtremeFieldValues) {
  Rng rng(6);
  const crypto::IbcAuthority authority(3);
  MndpRequest req;
  req.source = node_id(0xffff);          // max l_id value
  req.nu = 15;                           // max l_nu value
  req.nonce = BitVector(kCfg.l_n);       // all-zero nonce
  for (std::uint32_t i = 0; i < 200; ++i) req.source_neighbors.push_back(node_id(i));
  req.source_signature = sign_prefix(authority, node_id(0xffff), SignedBody(req, kCfg), 0);
  const auto decoded = MndpRequest::decode(req.encode(kCfg), kCfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source, node_id(0xffff));
  EXPECT_EQ(decoded->nu, 15u);
  EXPECT_EQ(decoded->source_neighbors.size(), 200u);
  EXPECT_TRUE(verify_prefix(authority, node_id(0xffff), SignedBody(*decoded, kCfg), 0,
                            decoded->source_signature));
}

}  // namespace
}  // namespace jrsnd::core
