#include "core/messages.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "crypto/ibc.hpp"

namespace jrsnd::core {
namespace {

WireConfig paper_wire() { return WireConfig{}; }  // Table I defaults

BitVector nonce20(Rng& rng) {
  BitVector v(20);
  for (std::size_t i = 0; i < 20; ++i) v.set(i, rng.bernoulli(0.5));
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

TEST(HelloMessage, RoundTrip) {
  const WireConfig cfg = paper_wire();
  const HelloMessage msg{node_id(1234)};
  const BitVector bits = msg.encode(cfg);
  EXPECT_EQ(bits.size(), HelloMessage::payload_bits(cfg));
  EXPECT_EQ(bits.size(), 21u);  // l_t + l_id
  const auto decoded = HelloMessage::decode(bits, cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sender, node_id(1234));
  EXPECT_EQ(peek_type(bits, cfg), MessageType::Hello);
}

TEST(HelloMessage, RejectsWrongType) {
  const WireConfig cfg = paper_wire();
  const ConfirmMessage confirm{node_id(5)};
  EXPECT_FALSE(HelloMessage::decode(confirm.encode(cfg), cfg).has_value());
}

TEST(HelloMessage, RejectsTruncatedAndPadded) {
  const WireConfig cfg = paper_wire();
  const BitVector bits = HelloMessage{node_id(9)}.encode(cfg);
  EXPECT_FALSE(HelloMessage::decode(bits.slice(0, 20), cfg).has_value());
  BitVector padded = bits;
  padded.push_back(false);
  EXPECT_FALSE(HelloMessage::decode(padded, cfg).has_value());
}

TEST(ConfirmMessage, RoundTrip) {
  const WireConfig cfg = paper_wire();
  const ConfirmMessage msg{node_id(77)};
  const auto decoded = ConfirmMessage::decode(msg.encode(cfg), cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sender, node_id(77));
}

TEST(AuthMessage, RoundTripAndVerify) {
  const WireConfig cfg = paper_wire();
  Rng rng(1);
  crypto::SymmetricKey key;
  key.fill(0x42);
  const AuthMessage msg = AuthMessage::make(node_id(3), nonce20(rng), key, cfg);
  const BitVector bits = msg.encode(cfg);
  EXPECT_EQ(bits.size(), AuthMessage::payload_bits(cfg));
  EXPECT_EQ(bits.size(), 5u + 16u + 20u + 160u);
  const auto decoded = AuthMessage::decode(bits, cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sender, node_id(3));
  EXPECT_EQ(decoded->nonce, msg.nonce);
  EXPECT_TRUE(decoded->verify(key, cfg));
}

TEST(AuthMessage, VerifyFailsWithWrongKey) {
  const WireConfig cfg = paper_wire();
  Rng rng(2);
  crypto::SymmetricKey key;
  key.fill(0x42);
  crypto::SymmetricKey other;
  other.fill(0x43);
  const AuthMessage msg = AuthMessage::make(node_id(3), nonce20(rng), key, cfg);
  const auto decoded = AuthMessage::decode(msg.encode(cfg), cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->verify(other, cfg));
}

TEST(AuthMessage, VerifyFailsOnTamperedNonce) {
  const WireConfig cfg = paper_wire();
  Rng rng(3);
  crypto::SymmetricKey key;
  key.fill(0x01);
  const AuthMessage msg = AuthMessage::make(node_id(3), nonce20(rng), key, cfg);
  BitVector bits = msg.encode(cfg);
  bits.flip(cfg.l_t + cfg.l_id + 2);  // a nonce bit
  const auto decoded = AuthMessage::decode(bits, cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->verify(key, cfg));
}

TEST(AuthMessage, VerifyFailsOnTamperedSenderId) {
  // Replay-protection: the MAC binds the claimed identity.
  const WireConfig cfg = paper_wire();
  Rng rng(4);
  crypto::SymmetricKey key;
  key.fill(0x01);
  const AuthMessage msg = AuthMessage::make(node_id(3), nonce20(rng), key, cfg);
  BitVector bits = msg.encode(cfg);
  bits.flip(cfg.l_t);  // an ID bit
  const auto decoded = AuthMessage::decode(bits, cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->verify(key, cfg));
}

MndpRequest make_request(Rng& rng, const crypto::IbcAuthority& authority) {
  MndpRequest req;
  req.source = node_id(1);
  req.source_neighbors = {node_id(2), node_id(3), node_id(9)};
  req.nonce = nonce20(rng);
  req.nu = 3;
  req.source_signature =
      sign_prefix(authority, node_id(1), SignedBody(req, WireConfig{}), 0);
  return req;
}

TEST(MndpRequest, RoundTripNoHops) {
  const WireConfig cfg = paper_wire();
  Rng rng(5);
  const crypto::IbcAuthority authority(9);
  const MndpRequest req = make_request(rng, authority);
  const auto decoded = MndpRequest::decode(req.encode(cfg), cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source, req.source);
  EXPECT_EQ(decoded->source_neighbors, req.source_neighbors);
  EXPECT_EQ(decoded->nonce, req.nonce);
  EXPECT_EQ(decoded->nu, 3u);
  EXPECT_TRUE(decoded->hops.empty());
  EXPECT_EQ(decoded->hops_traversed(), 1u);
  // Signature survives the wire and verifies.
  EXPECT_TRUE(verify_prefix(authority, node_id(1), SignedBody(*decoded, cfg), 0,
                            decoded->source_signature));
}

TEST(MndpRequest, RoundTripWithHops) {
  const WireConfig cfg = paper_wire();
  Rng rng(6);
  const crypto::IbcAuthority authority(10);
  MndpRequest req = make_request(rng, authority);

  HopRecord hop;
  hop.id = node_id(2);
  hop.neighbors = {node_id(1), node_id(7), node_id(8)};
  req.hops.push_back(hop);
  req.hops.back().signature = sign_prefix(authority, node_id(2), SignedBody(req, cfg), 1);

  const auto decoded = MndpRequest::decode(req.encode(cfg), cfg);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->hops.size(), 1u);
  EXPECT_EQ(decoded->hops[0].id, node_id(2));
  EXPECT_EQ(decoded->hops[0].neighbors, hop.neighbors);
  EXPECT_EQ(decoded->hops_traversed(), 2u);
  EXPECT_TRUE(verify_prefix(authority, node_id(2), SignedBody(*decoded, cfg), 1,
                            decoded->hops[0].signature));
}

TEST(MndpRequest, SignatureBreaksWhenListTampered) {
  const WireConfig cfg = paper_wire();
  Rng rng(7);
  const crypto::IbcAuthority authority(11);
  const MndpRequest req = make_request(rng, authority);
  auto decoded = MndpRequest::decode(req.encode(cfg), cfg);
  ASSERT_TRUE(decoded.has_value());
  decoded->source_neighbors.push_back(node_id(666));  // inject a neighbor
  EXPECT_FALSE(verify_prefix(authority, node_id(1), SignedBody(*decoded, cfg), 0,
                             decoded->source_signature));
}

TEST(MndpRequest, EmptyNeighborListEncodes) {
  const WireConfig cfg = paper_wire();
  Rng rng(8);
  const crypto::IbcAuthority authority(12);
  MndpRequest req;
  req.source = node_id(4);
  req.nonce = nonce20(rng);
  req.nu = 1;
  req.source_signature = sign_prefix(authority, node_id(4), SignedBody(req, cfg), 0);
  const auto decoded = MndpRequest::decode(req.encode(cfg), cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->source_neighbors.empty());
}

TEST(MndpResponse, RoundTripWithHops) {
  const WireConfig cfg = paper_wire();
  Rng rng(9);
  const crypto::IbcAuthority authority(13);
  MndpResponse resp;
  resp.source = node_id(1);
  resp.via = node_id(2);
  resp.responder = node_id(3);
  resp.responder_neighbors = {node_id(2), node_id(5)};
  resp.nonce = nonce20(rng);
  resp.nu = 2;
  resp.responder_signature =
      sign_prefix(authority, node_id(3), SignedBody(resp, cfg), 0);

  HopRecord hop;
  hop.id = node_id(2);
  hop.neighbors = {node_id(1), node_id(3)};
  resp.hops.push_back(hop);
  resp.hops.back().signature = sign_prefix(authority, node_id(2), SignedBody(resp, cfg), 1);

  const auto decoded = MndpResponse::decode(resp.encode(cfg), cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source, node_id(1));
  EXPECT_EQ(decoded->via, node_id(2));
  EXPECT_EQ(decoded->responder, node_id(3));
  EXPECT_EQ(decoded->responder_neighbors, resp.responder_neighbors);
  ASSERT_EQ(decoded->hops.size(), 1u);
  EXPECT_TRUE(verify_prefix(authority, node_id(3), SignedBody(*decoded, cfg), 0,
                            decoded->responder_signature));
  EXPECT_TRUE(verify_prefix(authority, node_id(2), SignedBody(*decoded, cfg), 1,
                            decoded->hops[0].signature));
}

TEST(MndpMessages, WireLengthAccountsForLsig) {
  // Each signature occupies l_sig = 672 bits regardless of tag size.
  const WireConfig cfg = paper_wire();
  Rng rng(10);
  const crypto::IbcAuthority authority(14);
  const MndpRequest req = make_request(rng, authority);
  const std::size_t base = req.payload_bits(cfg);
  MndpRequest extended = req;
  HopRecord hop;
  hop.id = node_id(2);
  extended.hops.push_back(hop);
  // One extra hop adds l_id + 16 (count) + l_sig bits (empty list).
  EXPECT_EQ(extended.payload_bits(cfg), base + cfg.l_id + 16 + cfg.l_sig);
}

TEST(PeekType, InvalidValuesRejected) {
  const WireConfig cfg = paper_wire();
  BitVector bits;
  bits.append_uint(0, cfg.l_t);  // 0 is not a valid type
  EXPECT_FALSE(peek_type(bits, cfg).has_value());
  EXPECT_FALSE(peek_type(BitVector(3), cfg).has_value());  // too short
}

/// A digest whose bits are all distinguishable.
crypto::Sha256Digest patterned_digest() {
  crypto::Sha256Digest d{};
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = static_cast<std::uint8_t>(0x5A ^ (i * 37));
  return d;
}

class SignatureFieldWidths : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SignatureFieldWidths, SignatureTagsRoundTripThroughTheWire) {
  // l_sig below 256 truncates the tag, 256 carries it exactly, above 256
  // zero-pads it; each field is written and read a word at a time.
  WireConfig cfg = paper_wire();
  cfg.l_sig = GetParam();
  const crypto::Sha256Digest tag = patterned_digest();
  MndpRequest req;
  req.source = node_id(1);
  req.source_neighbors = {node_id(2), node_id(3)};
  req.nonce = BitVector(cfg.l_n);
  req.source_signature.tag = tag;
  req.hops.push_back(HopRecord{node_id(2), {node_id(5)}, crypto::IbcSignature{tag}});
  const BitVector bits = req.encode(cfg);
  EXPECT_EQ(bits.size(), cfg.l_t + 3 * cfg.l_id + 16 + cfg.l_n + cfg.l_nu + cfg.l_sig + 8 +
                             cfg.l_id + 16 + cfg.l_id + cfg.l_sig);

  // The wire field is the tag's first min(l_sig, 256) bits, then zeros.
  const std::size_t sig_at = cfg.l_t + cfg.l_id + 16 + 2 * cfg.l_id + cfg.l_n + cfg.l_nu;
  const BitVector tag_bits = BitVector::from_bytes(tag);
  for (std::size_t i = 0; i < cfg.l_sig; ++i) {
    ASSERT_EQ(bits.get(sig_at + i), i < 256 && tag_bits.get(i)) << i;
  }

  crypto::Sha256Digest want{};
  const std::size_t keep = std::min<std::size_t>(cfg.l_sig, 256);
  for (std::size_t i = 0; i < keep; ++i) {
    if (tag_bits.get(i)) want[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
  }
  const auto decoded = MndpRequest::decode(bits, cfg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source_signature.tag, want);
  ASSERT_EQ(decoded->hops.size(), 1u);
  EXPECT_EQ(decoded->hops[0].signature.tag, want);
  EXPECT_EQ(decoded->encode(cfg), bits);
}

INSTANTIATE_TEST_SUITE_P(Lsig, SignatureFieldWidths, ::testing::Values(160u, 256u, 672u));

TEST(SignedBody, PrefixesAreTheSignedBlocksPackedAlone) {
  // Prefix j of the body must be exactly the bit string signer j covers:
  // the leading block, then hops[0..j-1]'s (ID, list) blocks.
  const WireConfig cfg = paper_wire();
  Rng rng(12);
  MndpRequest req;
  req.source = node_id(1);
  req.source_neighbors = {node_id(2), node_id(3), node_id(9)};
  req.nonce = nonce20(rng);
  req.nu = 3;
  // Hop ids with their top bits set: each block's first bits land in the
  // previous block's final partial byte, so a stale byte would show.
  req.hops.push_back(HopRecord{node_id(0xC002), {node_id(1), node_id(0xB007)}, {}});
  req.hops.push_back(HopRecord{node_id(0xB007), {node_id(0xC002), node_id(8), node_id(11)}, {}});
  const SignedBody body(req, cfg);
  ASSERT_EQ(body.prefixes(), 3u);

  BitVector want;
  want.append_uint(static_cast<std::uint64_t>(MessageType::MndpRequest), cfg.l_t);
  want.append_uint(1, cfg.l_id);
  want.append_uint(3, 16);
  for (const std::uint32_t id : {2u, 3u, 9u}) want.append_uint(id, cfg.l_id);
  want.append(req.nonce);
  want.append_uint(3, cfg.l_nu);
  EXPECT_EQ(body.prefix_bits(0), want.size());
  for (std::size_t k = 0; k < req.hops.size(); ++k) {
    want.append_uint(raw(req.hops[k].id), cfg.l_id);
    want.append_uint(req.hops[k].neighbors.size(), 16);
    for (const NodeId id : req.hops[k].neighbors) want.append_uint(raw(id), cfg.l_id);
    EXPECT_EQ(body.prefix_bits(k + 1), want.size()) << k;
  }
  EXPECT_NE(body.prefix_bits(0) % 8, 0u) << "the test wants unaligned prefixes";
  EXPECT_NE(body.prefix_bits(1) % 8, 0u) << "the test wants unaligned prefixes";
  EXPECT_EQ(std::vector<std::uint8_t>(body.bytes().begin(), body.bytes().end()),
            want.to_bytes());

  // Appending a hop extends the body exactly as rebuilding it would.
  SignedBody grown(req, cfg);
  req.hops.push_back(HopRecord{node_id(0xF008), {node_id(0xB007)}, {}});
  grown.append_hop(req.hops.back().id, req.hops.back().neighbors);
  const SignedBody rebuilt(req, cfg);
  ASSERT_EQ(grown.prefixes(), rebuilt.prefixes());
  for (std::size_t j = 0; j < grown.prefixes(); ++j) {
    EXPECT_EQ(grown.prefix_bits(j), rebuilt.prefix_bits(j));
  }
  EXPECT_TRUE(std::equal(grown.bytes().begin(), grown.bytes().end(), rebuilt.bytes().begin(),
                         rebuilt.bytes().end()));
}

TEST(TruncateDigest, WidthsAndPadding) {
  crypto::Sha256Digest d{};
  d[0] = 0xff;
  const BitVector t8 = truncate_digest(d, 8);
  EXPECT_EQ(t8.to_string(), "11111111");
  const BitVector t300 = truncate_digest(d, 300);
  EXPECT_EQ(t300.size(), 300u);
  // Bits beyond 256 are zero-padded.
  for (std::size_t i = 256; i < 300; ++i) EXPECT_FALSE(t300.get(i));
}

}  // namespace
}  // namespace jrsnd::core
