#include "crypto/ibc.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "crypto/hmac.hpp"

namespace jrsnd::crypto {

namespace {

/// Oracle input: a short domain tag, then big-endian 32-bit ids.
template <std::size_t N>
void put_u32(std::array<std::uint8_t, N>& out, std::size_t at, std::uint32_t v) noexcept {
  out[at] = static_cast<std::uint8_t>(v >> 24);
  out[at + 1] = static_cast<std::uint8_t>(v >> 16);
  out[at + 2] = static_cast<std::uint8_t>(v >> 8);
  out[at + 3] = static_cast<std::uint8_t>(v);
}

/// HMAC over the first `bits` bits of `message`: the whole bytes streamed as
/// they are, then the final partial byte with its trailing bits masked off.
Sha256Digest mac_bits(const HmacKey& key, std::span<const std::uint8_t> message,
                      std::size_t bits) noexcept {
  assert(bits <= message.size() * 8);
  Sha256 inner = key.inner_context();
  inner.update(message.first(bits / 8));
  if (const std::size_t tail = bits % 8; tail != 0) {
    const std::uint8_t last =
        static_cast<std::uint8_t>(message[bits / 8] & (0xFFu << (8 - tail)));
    inner.update(std::span<const std::uint8_t>(&last, 1));
  }
  return key.finish(inner);
}

}  // namespace

SymmetricKey PairingOracle::pair_key(NodeId a, NodeId b) const noexcept {
  // The bilinear map is symmetric, so canonicalize the pair ordering.
  std::array<std::uint8_t, 12> input = {'p', 'a', 'i', 'r'};
  put_u32(input, 4, std::min(raw(a), raw(b)));
  put_u32(input, 8, std::max(raw(a), raw(b)));
  return master_.mac(input);
}

SignerKey PairingOracle::signer_key(NodeId id) const noexcept {
  std::array<std::uint8_t, 7> input = {'s', 'i', 'g'};
  put_u32(input, 3, raw(id));
  return SignerKey{id, HmacKey(master_.mac(input))};
}

bool PairingOracle::verify(const SignerKey& signer, std::span<const std::uint8_t> message,
                           std::size_t bits, const IbcSignature& sig) noexcept {
  return digest_equal(mac_bits(signer.schedule, message, bits), sig.tag);
}

SymmetricKey IbcPrivateKey::shared_key(NodeId peer) const noexcept {
  return oracle_->pair_key(id_, peer);
}

IbcSignature IbcPrivateKey::sign(const SignerKey& own, std::span<const std::uint8_t> message,
                                 std::size_t bits) const noexcept {
  if (own.id != id_) return sign(signing_key(), message, bits);
  return IbcSignature{mac_bits(own.schedule, message, bits)};
}

IbcAuthority::IbcAuthority(std::uint64_t master_seed) noexcept {
  // Stretch the seed into a 256-bit master secret.
  std::vector<std::uint8_t> seed_bytes(8);
  for (int i = 0; i < 8; ++i) seed_bytes[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(master_seed >> (56 - 8 * i));
  const SymmetricKey master = Sha256::hash(seed_bytes);
  oracle_ = std::shared_ptr<const PairingOracle>(new PairingOracle(master));
}

IbcPrivateKey IbcAuthority::issue(NodeId id) const { return IbcPrivateKey(id, oracle_); }

Sha256Digest compute_mac(const SymmetricKey& key, std::span<const std::uint8_t> message) noexcept {
  return hmac_sha256(key, message);
}

}  // namespace jrsnd::crypto
