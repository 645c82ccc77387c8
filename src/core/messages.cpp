#include "core/messages.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/hmac.hpp"

namespace jrsnd::core {

namespace {

constexpr std::uint32_t kListCountBits = 16;
constexpr std::uint32_t kHopCountBits = 8;
constexpr std::size_t kTagBits = 256;  // cryptographic content of MAC/SIG

/// Bounds-checked sequential reader over a BitVector.
class BitReader {
 public:
  explicit BitReader(const BitVector& bits) : bits_(bits) {}

  [[nodiscard]] bool read(std::size_t width, std::uint64_t& out) {
    if (pos_ + width > bits_.size()) return false;
    out = bits_.read_uint(pos_, width);
    pos_ += width;
    return true;
  }

  [[nodiscard]] bool read_bits(std::size_t width, BitVector& out) {
    if (pos_ + width > bits_.size()) return false;
    out = bits_.slice(pos_, width);
    pos_ += width;
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == bits_.size(); }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  const BitVector& bits_;
  std::size_t pos_ = 0;
};

void append_type(BitVector& bv, MessageType type, const WireConfig& cfg) {
  bv.append_uint(static_cast<std::uint64_t>(type), cfg.l_t);
}

void append_id(BitVector& bv, NodeId id, const WireConfig& cfg) {
  bv.append_uint(raw(id) & ((1ULL << cfg.l_id) - 1), cfg.l_id);
}

void append_list(BitVector& bv, const std::vector<NodeId>& list, const WireConfig& cfg) {
  bv.append_uint(list.size(), kListCountBits);
  for (const NodeId id : list) append_id(bv, id, cfg);
}

bool read_id(BitReader& r, const WireConfig& cfg, NodeId& out) {
  std::uint64_t v = 0;
  if (!r.read(cfg.l_id, v)) return false;
  out = node_id(static_cast<std::uint32_t>(v));
  return true;
}

bool read_list(BitReader& r, const WireConfig& cfg, std::vector<NodeId>& out) {
  std::uint64_t count = 0;
  if (!r.read(kListCountBits, count)) return false;
  out.clear();
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    NodeId id = kInvalidNode;
    if (!read_id(r, cfg, id)) return false;
    out.push_back(id);
  }
  return true;
}

/// Signature on the wire: the 256-bit tag, zero-padded (or truncated, for
/// pathological configs) to l_sig bits.
void append_signature(BitVector& bv, const crypto::IbcSignature& sig, const WireConfig& cfg) {
  const BitVector tag = BitVector::from_bytes(
      std::span<const std::uint8_t>(sig.tag.data(), sig.tag.size()));
  const std::size_t keep = std::min<std::size_t>(kTagBits, cfg.l_sig);
  bv.append(tag.slice(0, keep));
  for (std::size_t i = keep; i < cfg.l_sig; ++i) bv.push_back(false);
}

bool read_signature(BitReader& r, const WireConfig& cfg, crypto::IbcSignature& out) {
  BitVector field;
  if (!r.read_bits(cfg.l_sig, field)) return false;
  out = crypto::IbcSignature{};
  const std::size_t keep = std::min<std::size_t>(kTagBits, cfg.l_sig);
  const std::vector<std::uint8_t> bytes = field.slice(0, keep).to_bytes();
  std::copy(bytes.begin(), bytes.end(), out.tag.begin());
  return true;
}

void append_mac(BitVector& bv, const crypto::Sha256Digest& mac, const WireConfig& cfg) {
  bv.append(truncate_digest(mac, cfg.l_mac));
}

}  // namespace

std::optional<MessageType> peek_type(const BitVector& bits, const WireConfig& cfg) {
  if (bits.size() < cfg.l_t) return std::nullopt;
  const std::uint64_t v = bits.read_uint(0, cfg.l_t);
  if (v < 1 || v > 7) return std::nullopt;
  return static_cast<MessageType>(v);
}

BitVector truncate_digest(const crypto::Sha256Digest& digest, std::uint32_t bits) {
  const BitVector full = BitVector::from_bytes(
      std::span<const std::uint8_t>(digest.data(), digest.size()));
  const std::size_t keep = std::min<std::size_t>(bits, full.size());
  BitVector out = full.slice(0, keep);
  for (std::size_t i = keep; i < bits; ++i) out.push_back(false);
  return out;
}

// --- HelloMessage -----------------------------------------------------------

BitVector HelloMessage::encode(const WireConfig& cfg) const {
  BitVector bv;
  append_type(bv, MessageType::Hello, cfg);
  append_id(bv, sender, cfg);
  return bv;
}

std::optional<HelloMessage> HelloMessage::decode(const BitVector& bits, const WireConfig& cfg) {
  BitReader r(bits);
  std::uint64_t type = 0;
  HelloMessage msg;
  if (!r.read(cfg.l_t, type) || type != static_cast<std::uint64_t>(MessageType::Hello)) {
    return std::nullopt;
  }
  if (!read_id(r, cfg, msg.sender) || !r.done()) return std::nullopt;
  return msg;
}

// --- ConfirmMessage ---------------------------------------------------------

BitVector ConfirmMessage::encode(const WireConfig& cfg) const {
  BitVector bv;
  append_type(bv, MessageType::Confirm, cfg);
  append_id(bv, sender, cfg);
  return bv;
}

std::optional<ConfirmMessage> ConfirmMessage::decode(const BitVector& bits,
                                                     const WireConfig& cfg) {
  BitReader r(bits);
  std::uint64_t type = 0;
  ConfirmMessage msg;
  if (!r.read(cfg.l_t, type) || type != static_cast<std::uint64_t>(MessageType::Confirm)) {
    return std::nullopt;
  }
  if (!read_id(r, cfg, msg.sender) || !r.done()) return std::nullopt;
  return msg;
}

// --- AuthMessage ------------------------------------------------------------

std::vector<std::uint8_t> AuthMessage::mac_input(NodeId sender, const BitVector& nonce) {
  BitVector bv;
  bv.append_uint(raw(sender), 32);
  bv.append(nonce);
  return bv.to_bytes();
}

AuthMessage AuthMessage::make(NodeId sender, BitVector nonce, const crypto::HmacKey& key,
                              const WireConfig& /*cfg*/) {
  AuthMessage msg;
  msg.sender = sender;
  msg.mac = key.mac(mac_input(sender, nonce));
  msg.nonce = std::move(nonce);
  return msg;
}

AuthMessage AuthMessage::make(NodeId sender, BitVector nonce, const crypto::SymmetricKey& key,
                              const WireConfig& cfg) {
  return make(sender, std::move(nonce), crypto::HmacKey(key), cfg);
}

bool AuthMessage::verify(const crypto::SymmetricKey& key, const WireConfig& cfg) const {
  const crypto::Sha256Digest expected = crypto::compute_mac(key, mac_input(sender, nonce));
  // Compare over the wire width (the receiver only ever saw l_mac bits).
  return truncate_digest(expected, cfg.l_mac) == truncate_digest(mac, cfg.l_mac);
}

BitVector AuthMessage::encode(const WireConfig& cfg) const {
  assert(nonce.size() == cfg.l_n);
  BitVector bv;
  append_type(bv, MessageType::Auth, cfg);
  append_id(bv, sender, cfg);
  bv.append(nonce);
  append_mac(bv, mac, cfg);
  return bv;
}

std::optional<AuthMessage> AuthMessage::decode(const BitVector& bits, const WireConfig& cfg) {
  BitReader r(bits);
  std::uint64_t type = 0;
  AuthMessage msg;
  if (!r.read(cfg.l_t, type) || type != static_cast<std::uint64_t>(MessageType::Auth)) {
    return std::nullopt;
  }
  BitVector mac_bits;
  if (!read_id(r, cfg, msg.sender) || !r.read_bits(cfg.l_n, msg.nonce) ||
      !r.read_bits(cfg.l_mac, mac_bits) || !r.done()) {
    return std::nullopt;
  }
  // Store the wire MAC left-aligned in the 256-bit digest field.
  msg.mac.fill(0);
  const std::vector<std::uint8_t> bytes = mac_bits.to_bytes();
  std::copy(bytes.begin(), bytes.end(), msg.mac.begin());
  return msg;
}

// --- MndpRequest ------------------------------------------------------------

namespace {

void append_mndp_request_source_block(BitVector& bv, const MndpRequest& req,
                                      const WireConfig& cfg) {
  append_type(bv, MessageType::MndpRequest, cfg);
  append_id(bv, req.source, cfg);
  append_list(bv, req.source_neighbors, cfg);
  bv.append(req.nonce);
  bv.append_uint(req.nu, cfg.l_nu);
}

}  // namespace

std::vector<std::uint8_t> MndpRequest::source_sign_input(const WireConfig& cfg) const {
  BitVector bv;
  append_mndp_request_source_block(bv, *this, cfg);
  return bv.to_bytes();
}

std::vector<std::uint8_t> MndpRequest::hop_sign_input(std::size_t index,
                                                      const WireConfig& cfg) const {
  assert(index < hops.size());
  BitVector bv;
  append_mndp_request_source_block(bv, *this, cfg);
  for (std::size_t i = 0; i <= index; ++i) {
    append_id(bv, hops[i].id, cfg);
    append_list(bv, hops[i].neighbors, cfg);
  }
  return bv.to_bytes();
}

BitVector MndpRequest::encode(const WireConfig& cfg) const {
  assert(nonce.size() == cfg.l_n);
  BitVector bv;
  append_mndp_request_source_block(bv, *this, cfg);
  append_signature(bv, source_signature, cfg);
  bv.append_uint(hops.size(), kHopCountBits);
  for (const HopRecord& hop : hops) {
    append_id(bv, hop.id, cfg);
    append_list(bv, hop.neighbors, cfg);
    append_signature(bv, hop.signature, cfg);
  }
  return bv;
}

std::optional<MndpRequest> MndpRequest::decode(const BitVector& bits, const WireConfig& cfg) {
  BitReader r(bits);
  std::uint64_t type = 0;
  MndpRequest msg;
  if (!r.read(cfg.l_t, type) || type != static_cast<std::uint64_t>(MessageType::MndpRequest)) {
    return std::nullopt;
  }
  std::uint64_t nu = 0;
  if (!read_id(r, cfg, msg.source) || !read_list(r, cfg, msg.source_neighbors) ||
      !r.read_bits(cfg.l_n, msg.nonce) || !r.read(cfg.l_nu, nu) ||
      !read_signature(r, cfg, msg.source_signature)) {
    return std::nullopt;
  }
  msg.nu = static_cast<std::uint32_t>(nu);
  std::uint64_t hop_count = 0;
  if (!r.read(kHopCountBits, hop_count)) return std::nullopt;
  for (std::uint64_t i = 0; i < hop_count; ++i) {
    HopRecord hop;
    if (!read_id(r, cfg, hop.id) || !read_list(r, cfg, hop.neighbors) ||
        !read_signature(r, cfg, hop.signature)) {
      return std::nullopt;
    }
    msg.hops.push_back(std::move(hop));
  }
  if (!r.done()) return std::nullopt;
  return msg;
}

std::size_t MndpRequest::payload_bits(const WireConfig& cfg) const {
  return encode(cfg).size();
}

// --- MndpResponse -----------------------------------------------------------

namespace {

void append_mndp_response_block(BitVector& bv, const MndpResponse& resp, const WireConfig& cfg) {
  append_type(bv, MessageType::MndpResponse, cfg);
  append_id(bv, resp.source, cfg);
  append_id(bv, resp.via, cfg);
  append_id(bv, resp.responder, cfg);
  append_list(bv, resp.responder_neighbors, cfg);
  bv.append(resp.nonce);
  bv.append_uint(resp.nu, cfg.l_nu);
}

}  // namespace

std::vector<std::uint8_t> MndpResponse::responder_sign_input(const WireConfig& cfg) const {
  BitVector bv;
  append_mndp_response_block(bv, *this, cfg);
  return bv.to_bytes();
}

std::vector<std::uint8_t> MndpResponse::hop_sign_input(std::size_t index,
                                                       const WireConfig& cfg) const {
  assert(index < hops.size());
  BitVector bv;
  append_mndp_response_block(bv, *this, cfg);
  for (std::size_t i = 0; i <= index; ++i) {
    append_id(bv, hops[i].id, cfg);
    append_list(bv, hops[i].neighbors, cfg);
  }
  return bv.to_bytes();
}

BitVector MndpResponse::encode(const WireConfig& cfg) const {
  assert(nonce.size() == cfg.l_n);
  BitVector bv;
  append_mndp_response_block(bv, *this, cfg);
  append_signature(bv, responder_signature, cfg);
  bv.append_uint(hops.size(), kHopCountBits);
  for (const HopRecord& hop : hops) {
    append_id(bv, hop.id, cfg);
    append_list(bv, hop.neighbors, cfg);
    append_signature(bv, hop.signature, cfg);
  }
  return bv;
}

std::optional<MndpResponse> MndpResponse::decode(const BitVector& bits, const WireConfig& cfg) {
  BitReader r(bits);
  std::uint64_t type = 0;
  MndpResponse msg;
  if (!r.read(cfg.l_t, type) || type != static_cast<std::uint64_t>(MessageType::MndpResponse)) {
    return std::nullopt;
  }
  std::uint64_t nu = 0;
  if (!read_id(r, cfg, msg.source) || !read_id(r, cfg, msg.via) ||
      !read_id(r, cfg, msg.responder) || !read_list(r, cfg, msg.responder_neighbors) ||
      !r.read_bits(cfg.l_n, msg.nonce) || !r.read(cfg.l_nu, nu) ||
      !read_signature(r, cfg, msg.responder_signature)) {
    return std::nullopt;
  }
  msg.nu = static_cast<std::uint32_t>(nu);
  std::uint64_t hop_count = 0;
  if (!r.read(kHopCountBits, hop_count)) return std::nullopt;
  for (std::uint64_t i = 0; i < hop_count; ++i) {
    HopRecord hop;
    if (!read_id(r, cfg, hop.id) || !read_list(r, cfg, hop.neighbors) ||
        !read_signature(r, cfg, hop.signature)) {
      return std::nullopt;
    }
    msg.hops.push_back(std::move(hop));
  }
  if (!r.done()) return std::nullopt;
  return msg;
}

std::size_t MndpResponse::payload_bits(const WireConfig& cfg) const {
  return encode(cfg).size();
}

}  // namespace jrsnd::core
