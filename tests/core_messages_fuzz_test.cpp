// Robustness: decoders must never crash, loop, or accept garbage as valid
// on adversarial input — every bit pattern a jammer or attacker could put
// on the air. Random buffers, truncations, bit flips, and hostile length
// fields are thrown at every message codec. A decode scratch, a signed
// body or a wire-read dedup key reused across such inputs must read the
// same as a fresh decode.
#include <gtest/gtest.h>

#include <algorithm>

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

// --- scratch reuse: decode_into, peek_key, SignedBody::assign ---------------

/// A well-formed request with `hop_count` hops and lists of up to `max_list`
/// ids; signatures are random tags (the codec does not check them).
MndpRequest random_request(Rng& rng, std::size_t hop_count, std::size_t max_list) {
  const auto id = [&rng] { return node_id(static_cast<std::uint32_t>(rng.uniform(1u << 16))); };
  const auto list = [&] {
    std::vector<NodeId> out(rng.uniform(max_list + 1));
    for (NodeId& n : out) n = id();
    return out;
  };
  const auto tag = [&rng] {
    crypto::IbcSignature sig;
    for (std::uint8_t& b : sig.tag) b = static_cast<std::uint8_t>(rng.uniform(256));
    return sig;
  };
  MndpRequest req;
  req.source = id();
  req.source_neighbors = list();
  req.nonce = random_bits(rng, kCfg.l_n);
  req.nu = static_cast<std::uint32_t>(rng.uniform(16));
  req.source_signature = tag();
  for (std::size_t k = 0; k < hop_count; ++k) req.hops.push_back(HopRecord{id(), list(), tag()});
  return req;
}

/// The response carrying `req`'s fields in the same roles.
MndpResponse response_like(const MndpRequest& req, NodeId via) {
  MndpResponse resp;
  resp.source = via;
  resp.via = via;
  resp.responder = req.source;
  resp.responder_neighbors = req.source_neighbors;
  resp.nonce = req.nonce;
  resp.nu = req.nu;
  resp.responder_signature = req.source_signature;
  resp.hops = req.hops;
  return resp;
}

TEST(MessageFuzz, DecodeIntoDirtyScratchEqualsFreshDecode) {
  Rng rng(21);
  MndpRequest req_scratch;
  MndpResponse resp_scratch;
  for (int trial = 0; trial < 300; ++trial) {
    // Dirty the scratch: a longer message (more hops, longer lists), then
    // a decode that fails partway through a copy of it.
    const MndpRequest longer = random_request(rng, 3 + rng.uniform(3), 40);
    const BitVector long_bits = longer.encode(kCfg);
    ASSERT_TRUE(MndpRequest::decode_into(long_bits, kCfg, req_scratch));
    ASSERT_EQ(req_scratch, longer);
    const MndpResponse longer_resp = response_like(longer, node_id(static_cast<std::uint32_t>(trial)));
    const BitVector long_resp_bits = longer_resp.encode(kCfg);
    ASSERT_TRUE(MndpResponse::decode_into(long_resp_bits, kCfg, resp_scratch));
    ASSERT_EQ(resp_scratch, longer_resp);
    if (trial % 2 == 1) {
      const std::size_t cut = 1 + rng.uniform(long_bits.size() - 1);
      EXPECT_FALSE(MndpRequest::decode_into(long_bits.slice(0, cut), kCfg, req_scratch)) << cut;
      const std::size_t resp_cut = 1 + rng.uniform(long_resp_bits.size() - 1);
      EXPECT_FALSE(
          MndpResponse::decode_into(long_resp_bits.slice(0, resp_cut), kCfg, resp_scratch))
          << resp_cut;
    }

    const MndpRequest shorter = random_request(rng, rng.uniform(3), 8);
    const BitVector bits = shorter.encode(kCfg);
    const auto fresh = MndpRequest::decode(bits, kCfg);
    ASSERT_TRUE(fresh.has_value());
    ASSERT_TRUE(MndpRequest::decode_into(bits, kCfg, req_scratch));
    EXPECT_EQ(req_scratch, *fresh);
    EXPECT_EQ(req_scratch, shorter);

    const BitVector resp_bits = response_like(shorter, node_id(7)).encode(kCfg);
    const auto fresh_resp = MndpResponse::decode(resp_bits, kCfg);
    ASSERT_TRUE(fresh_resp.has_value());
    ASSERT_TRUE(MndpResponse::decode_into(resp_bits, kCfg, resp_scratch));
    EXPECT_EQ(resp_scratch, *fresh_resp);

    // encode_into a dirty buffer writes exactly encode()'s bits.
    BitVector out = long_bits;
    req_scratch.encode_into(out, kCfg);
    EXPECT_EQ(out, bits);
    out = long_bits;
    resp_scratch.encode_into(out, kCfg);
    EXPECT_EQ(out, resp_bits);
  }
}

TEST(MessageFuzz, PeekKeyMatchesDecodedKey) {
  Rng rng(22);
  std::size_t decoded_count = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    BitVector bits = random_request(rng, rng.uniform(3), 6).encode(kCfg);
    if (trial % 3 == 0) {
      for (std::uint64_t k = 1 + rng.uniform(3); k > 0; --k) bits.flip(rng.uniform(bits.size()));
    }
    if (trial % 3 == 1) bits = bits.slice(0, rng.uniform(bits.size() + 1));
    const auto decoded = MndpRequest::decode(bits, kCfg);
    if (!decoded.has_value()) continue;
    ++decoded_count;
    const auto key = MndpRequest::peek_key(bits, kCfg);
    ASSERT_TRUE(key.has_value()) << "trial " << trial;
    EXPECT_EQ(*key, decoded->key()) << "trial " << trial;
  }
  EXPECT_GT(decoded_count, 1000u);  // the check was not vacuous

  // The key needs the header through the nonce: absent when it is cut
  // short, present (and final) from there on.
  const MndpRequest req = random_request(rng, 1, 5);
  const BitVector bits = req.encode(kCfg);
  const std::size_t header =
      kCfg.l_t + kCfg.l_id + 16 + kCfg.l_id * req.source_neighbors.size() + kCfg.l_n;
  for (std::size_t cut = 0; cut <= bits.size(); ++cut) {
    const auto key = MndpRequest::peek_key(bits.slice(0, cut), kCfg);
    if (cut < header) {
      EXPECT_FALSE(key.has_value()) << cut;
    } else {
      ASSERT_TRUE(key.has_value()) << cut;
      EXPECT_EQ(*key, req.key()) << cut;
    }
  }
  // Another message type never yields a request key.
  BitVector other = bits;
  other.flip(kCfg.l_t - 1);
  EXPECT_FALSE(MndpRequest::peek_key(other, kCfg).has_value());
}

void expect_same_body(const SignedBody& reused, const SignedBody& fresh) {
  ASSERT_EQ(reused.prefixes(), fresh.prefixes());
  for (std::size_t j = 0; j < fresh.prefixes(); ++j) {
    EXPECT_EQ(reused.prefix_bits(j), fresh.prefix_bits(j)) << j;
  }
  EXPECT_TRUE(std::ranges::equal(reused.bytes(), fresh.bytes()));
}

TEST(MessageFuzz, SignedBodyAssignMatchesFreshBody) {
  Rng rng(23);
  SignedBody body(kCfg);
  for (int trial = 0; trial < 200; ++trial) {
    // Alternate long and short messages of both kinds through one body.
    const MndpRequest req = random_request(rng, rng.uniform(5), trial % 2 == 0 ? 40 : 4);
    body.assign(req);
    expect_same_body(body, SignedBody(req, kCfg));

    // A forwarder's append_hop on the reused body still matches.
    const MndpRequest hop_src = random_request(rng, 0, 12);
    body.append_hop(hop_src.source, hop_src.source_neighbors);
    SignedBody grown(req, kCfg);
    grown.append_hop(hop_src.source, hop_src.source_neighbors);
    expect_same_body(body, grown);

    const MndpResponse resp = response_like(random_request(rng, rng.uniform(5), 20), node_id(3));
    body.assign(resp);
    expect_same_body(body, SignedBody(resp, kCfg));
  }
}

}  // namespace
}  // namespace jrsnd::core
