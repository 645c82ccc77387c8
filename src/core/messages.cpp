#include "core/messages.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

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

  /// `width` bits into `out`, reusing its storage.
  [[nodiscard]] bool read_bits(std::size_t width, BitVector& out) {
    if (pos_ + width > bits_.size()) return false;
    out.clear();
    for (std::size_t bit = 0; bit < width; bit += 64) {
      const std::size_t w = std::min<std::size_t>(64, width - bit);
      out.append_uint(bits_.read_uint(pos_ + bit, w), w);
    }
    pos_ += width;
    return true;
  }

  [[nodiscard]] bool skip(std::size_t width) {
    if (pos_ + width > bits_.size()) return false;
    pos_ += width;
    return true;
  }

  /// A tag field of `width` wire bits, a word at a time: its first (up to
  /// 256) bits left-aligned in `out`, zero past them; padding is skipped.
  [[nodiscard]] bool read_tag(std::size_t width, crypto::Sha256Digest& out) {
    if (pos_ + width > bits_.size()) return false;
    out.fill(0);
    const std::size_t keep = std::min(kTagBits, width);
    for (std::size_t bit = 0; bit < keep; bit += 64) {
      const std::size_t w = std::min<std::size_t>(64, keep - bit);
      const std::uint64_t word = bits_.read_uint(pos_ + bit, w) << (64 - w);
      for (std::size_t b = 0; b < 8; ++b) {
        out[bit / 8 + b] = static_cast<std::uint8_t>(word >> (56 - 8 * b));
      }
    }
    pos_ += width;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return bits_.size() - pos_; }

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

void append_list(BitVector& bv, std::span<const NodeId> list, const WireConfig& cfg) {
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
  if (!r.read(kListCountBits, count) || count * cfg.l_id > r.remaining()) return false;
  out.clear();
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    NodeId id = kInvalidNode;
    if (!read_id(r, cfg, id)) return false;
    out.push_back(id);
  }
  return true;
}

/// A 256-bit tag on the wire, a word at a time: truncated or zero-padded to
/// `width` bits (a MAC to l_mac, a signature to l_sig).
void append_tag(BitVector& bv, const crypto::Sha256Digest& tag, std::size_t width) {
  const std::size_t keep = std::min(kTagBits, width);
  for (std::size_t bit = 0; bit < keep; bit += 64) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8; ++b) word = (word << 8) | tag[bit / 8 + b];
    const std::size_t w = std::min<std::size_t>(64, keep - bit);
    bv.append_uint(word >> (64 - w), w);
  }
  bv.append_zeros(width - keep);
}

}  // namespace

std::optional<MessageType> peek_type(const BitVector& bits, const WireConfig& cfg) {
  if (bits.size() < cfg.l_t) return std::nullopt;
  const std::uint64_t v = bits.read_uint(0, cfg.l_t);
  if (v < 1 || v > 7) return std::nullopt;
  return static_cast<MessageType>(v);
}

BitVector truncate_digest(const crypto::Sha256Digest& digest, std::uint32_t bits) {
  BitVector out;
  append_tag(out, digest, bits);
  return out;
}

// --- HelloMessage -----------------------------------------------------------

BitVector HelloMessage::encode(const WireConfig& cfg) const {
  BitVector bv;
  encode_into(bv, cfg);
  return bv;
}

void HelloMessage::encode_into(BitVector& out, const WireConfig& cfg) const {
  out.clear();
  append_type(out, MessageType::Hello, cfg);
  append_id(out, sender, cfg);
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
  encode_into(bv, cfg);
  return bv;
}

void ConfirmMessage::encode_into(BitVector& out, const WireConfig& cfg) const {
  out.clear();
  append_type(out, MessageType::Confirm, cfg);
  append_id(out, sender, cfg);
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

namespace {

/// f_K(ID | n): the sender as a 32-bit big-endian field, then the nonce bits
/// MSB-first, zero-padded to a byte, streamed into K's inner midstate a
/// word at a time from a stack buffer.
crypto::Sha256Digest auth_mac(NodeId sender, const BitVector& nonce, const crypto::HmacKey& key) {
  crypto::Sha256 ctx = key.inner_context();
  std::array<std::uint8_t, 8> chunk;
  const std::uint64_t id = std::uint64_t{raw(sender)} << 32;
  for (std::size_t b = 0; b < 4; ++b) chunk[b] = static_cast<std::uint8_t>(id >> (56 - 8 * b));
  ctx.update(std::span<const std::uint8_t>(chunk.data(), 4));
  std::size_t bytes_left = (nonce.size() + 7) / 8;
  for (const std::uint64_t word : nonce.words()) {
    const std::size_t take = std::min<std::size_t>(8, bytes_left);
    for (std::size_t b = 0; b < take; ++b) {
      chunk[b] = static_cast<std::uint8_t>(word >> (56 - 8 * b));
    }
    ctx.update(std::span<const std::uint8_t>(chunk.data(), take));
    bytes_left -= take;
  }
  return key.finish(ctx);
}

/// The one AUTH encoder: type, ID, nonce, then the MAC at the l_mac width.
void append_auth(BitVector& out, NodeId sender, const BitVector& nonce,
                 const crypto::Sha256Digest& mac, const WireConfig& cfg) {
  assert(nonce.size() == cfg.l_n);
  out.clear();
  append_type(out, MessageType::Auth, cfg);
  append_id(out, sender, cfg);
  out.append(nonce);
  append_tag(out, mac, cfg.l_mac);
}

}  // namespace

AuthMessage AuthMessage::make(NodeId sender, BitVector nonce, const crypto::HmacKey& key,
                              const WireConfig& /*cfg*/) {
  AuthMessage msg;
  msg.sender = sender;
  msg.mac = auth_mac(sender, nonce, key);
  msg.nonce = std::move(nonce);
  return msg;
}

AuthMessage AuthMessage::make(NodeId sender, BitVector nonce, const crypto::SymmetricKey& key,
                              const WireConfig& cfg) {
  return make(sender, std::move(nonce), crypto::HmacKey(key), cfg);
}

void AuthMessage::make_into(NodeId sender, const BitVector& nonce, const crypto::HmacKey& key,
                            const WireConfig& cfg, BitVector& out) {
  append_auth(out, sender, nonce, auth_mac(sender, nonce, key), cfg);
}

bool AuthMessage::verify(const crypto::SymmetricKey& key, const WireConfig& cfg) const {
  const crypto::Sha256Digest expected = auth_mac(sender, nonce, crypto::HmacKey(key));
  // Compare over the wire width (the receiver only ever saw l_mac bits).
  return truncate_digest(expected, cfg.l_mac) == truncate_digest(mac, cfg.l_mac);
}

BitVector AuthMessage::encode(const WireConfig& cfg) const {
  BitVector bv;
  append_auth(bv, sender, nonce, mac, cfg);
  return bv;
}

std::optional<AuthMessage> AuthMessage::decode(const BitVector& bits, const WireConfig& cfg) {
  BitReader r(bits);
  std::uint64_t type = 0;
  AuthMessage msg;
  if (!r.read(cfg.l_t, type) || type != static_cast<std::uint64_t>(MessageType::Auth)) {
    return std::nullopt;
  }
  // The wire MAC lands left-aligned in the 256-bit digest field.
  if (!read_id(r, cfg, msg.sender) || !r.read_bits(cfg.l_n, msg.nonce) ||
      !r.read_tag(cfg.l_mac, msg.mac) || !r.done()) {
    return std::nullopt;
  }
  return msg;
}

// --- M-NDP messages ---------------------------------------------------------

namespace {

void append_mndp_request_source_block(BitVector& bv, const MndpRequest& req,
                                      const WireConfig& cfg) {
  append_type(bv, MessageType::MndpRequest, cfg);
  append_id(bv, req.source, cfg);
  append_list(bv, req.source_neighbors, cfg);
  bv.append(req.nonce);
  bv.append_uint(req.nu, cfg.l_nu);
}

void append_mndp_response_block(BitVector& bv, const MndpResponse& resp, const WireConfig& cfg) {
  append_type(bv, MessageType::MndpResponse, cfg);
  append_id(bv, resp.source, cfg);
  append_id(bv, resp.via, cfg);
  append_id(bv, resp.responder, cfg);
  append_list(bv, resp.responder_neighbors, cfg);
  bv.append(resp.nonce);
  bv.append_uint(resp.nu, cfg.l_nu);
}

/// The wire tail shared by both M-NDP messages: the leader's signature, the
/// hop count, then each hop's (ID, list, signature).
void append_signed_hops(BitVector& bv, const crypto::IbcSignature& leader, const HopList& hops,
                        const WireConfig& cfg) {
  append_tag(bv, leader.tag, cfg.l_sig);
  bv.append_uint(hops.size(), kHopCountBits);
  for (const HopRecord& hop : hops) {
    append_id(bv, hop.id, cfg);
    append_list(bv, hop.neighbors, cfg);
    append_tag(bv, hop.signature.tag, cfg.l_sig);
  }
}

/// Reads what append_signed_hops wrote; the message must end right after it.
bool read_signed_hops(BitReader& r, const WireConfig& cfg, crypto::IbcSignature& leader,
                      HopList& hops) {
  std::uint64_t hop_count = 0;
  if (!r.read_tag(cfg.l_sig, leader.tag) || !r.read(kHopCountBits, hop_count) ||
      hop_count * (cfg.l_id + kListCountBits + cfg.l_sig) > r.remaining()) {
    return false;  // a hop needs at least its ID, list count, and signature
  }
  hops.clear();
  for (std::uint64_t k = 0; k < hop_count; ++k) {
    HopRecord& hop = hops.append();
    if (!read_id(r, cfg, hop.id) || !read_list(r, cfg, hop.neighbors) ||
        !r.read_tag(cfg.l_sig, hop.signature.tag)) {
      return false;
    }
  }
  return r.done();
}

/// The (source, nonce) dedup key; the nonce contributes its first 32 bits.
std::uint64_t request_key(NodeId source, std::uint64_t nonce_head) {
  return (static_cast<std::uint64_t>(raw(source)) << 32) ^ nonce_head;
}

}  // namespace

BitVector MndpRequest::encode(const WireConfig& cfg) const {
  BitVector bv;
  encode_into(bv, cfg);
  return bv;
}

void MndpRequest::encode_into(BitVector& out, const WireConfig& cfg) const {
  assert(nonce.size() == cfg.l_n);
  out.clear();
  append_mndp_request_source_block(out, *this, cfg);
  append_signed_hops(out, source_signature, hops, cfg);
}

std::optional<MndpRequest> MndpRequest::decode(const BitVector& bits, const WireConfig& cfg) {
  MndpRequest msg;
  if (!decode_into(bits, cfg, msg)) return std::nullopt;
  return msg;
}

bool MndpRequest::decode_into(const BitVector& bits, const WireConfig& cfg, MndpRequest& out) {
  BitReader r(bits);
  std::uint64_t type = 0;
  std::uint64_t nu = 0;
  if (!r.read(cfg.l_t, type) || type != static_cast<std::uint64_t>(MessageType::MndpRequest) ||
      !read_id(r, cfg, out.source) || !read_list(r, cfg, out.source_neighbors) ||
      !r.read_bits(cfg.l_n, out.nonce) || !r.read(cfg.l_nu, nu) ||
      !read_signed_hops(r, cfg, out.source_signature, out.hops)) {
    return false;
  }
  out.nu = static_cast<std::uint32_t>(nu);
  return true;
}

std::size_t MndpRequest::payload_bits(const WireConfig& cfg) const {
  return encode(cfg).size();
}

std::uint64_t MndpRequest::key() const noexcept {
  return request_key(source, nonce.read_uint(0, std::min<std::size_t>(nonce.size(), 32)));
}

std::optional<std::uint64_t> MndpRequest::peek_key(const BitVector& bits,
                                                   const WireConfig& cfg) {
  BitReader r(bits);
  std::uint64_t type = 0;
  std::uint64_t source = 0;
  std::uint64_t count = 0;
  std::uint64_t nonce_head = 0;
  const std::size_t take = std::min<std::size_t>(cfg.l_n, 32);
  if (!r.read(cfg.l_t, type) || type != static_cast<std::uint64_t>(MessageType::MndpRequest) ||
      !r.read(cfg.l_id, source) || !r.read(kListCountBits, count) ||
      !r.skip(count * cfg.l_id) || r.remaining() < cfg.l_n || !r.read(take, nonce_head)) {
    return std::nullopt;
  }
  return request_key(node_id(static_cast<std::uint32_t>(source)), nonce_head);
}

BitVector MndpResponse::encode(const WireConfig& cfg) const {
  BitVector bv;
  encode_into(bv, cfg);
  return bv;
}

void MndpResponse::encode_into(BitVector& out, const WireConfig& cfg) const {
  assert(nonce.size() == cfg.l_n);
  out.clear();
  append_mndp_response_block(out, *this, cfg);
  append_signed_hops(out, responder_signature, hops, cfg);
}

std::optional<MndpResponse> MndpResponse::decode(const BitVector& bits, const WireConfig& cfg) {
  MndpResponse msg;
  if (!decode_into(bits, cfg, msg)) return std::nullopt;
  return msg;
}

bool MndpResponse::decode_into(const BitVector& bits, const WireConfig& cfg, MndpResponse& out) {
  BitReader r(bits);
  std::uint64_t type = 0;
  std::uint64_t nu = 0;
  if (!r.read(cfg.l_t, type) || type != static_cast<std::uint64_t>(MessageType::MndpResponse) ||
      !read_id(r, cfg, out.source) || !read_id(r, cfg, out.via) ||
      !read_id(r, cfg, out.responder) || !read_list(r, cfg, out.responder_neighbors) ||
      !r.read_bits(cfg.l_n, out.nonce) || !r.read(cfg.l_nu, nu) ||
      !read_signed_hops(r, cfg, out.responder_signature, out.hops)) {
    return false;
  }
  out.nu = static_cast<std::uint32_t>(nu);
  return true;
}

std::size_t MndpResponse::payload_bits(const WireConfig& cfg) const {
  return encode(cfg).size();
}

// --- SignedBody -------------------------------------------------------------

SignedBody::SignedBody(const MndpRequest& req, const WireConfig& cfg) : cfg_(cfg) {
  assign(req);
}

SignedBody::SignedBody(const MndpResponse& resp, const WireConfig& cfg) : cfg_(cfg) {
  assign(resp);
}

void SignedBody::assign(const MndpRequest& req) {
  bits_.clear();
  append_mndp_request_source_block(bits_, req, cfg_);
  append_hops(req.hops);
}

void SignedBody::assign(const MndpResponse& resp) {
  bits_.clear();
  append_mndp_response_block(bits_, resp, cfg_);
  append_hops(resp.hops);
}

void SignedBody::append_hops(const HopList& hops) {
  ends_.clear();
  ends_.reserve(hops.size() + 2);  // room for one forwarder's append_hop
  ends_.push_back(bits_.size());
  for (const HopRecord& hop : hops) {
    append_id(bits_, hop.id, cfg_);
    append_list(bits_, hop.neighbors, cfg_);
    ends_.push_back(bits_.size());
  }
  pack_from(0);
}

void SignedBody::append_hop(NodeId id, std::span<const NodeId> neighbors) {
  // The previous end's byte may be partial: repack from it; the bytes
  // before it are final.
  const std::size_t first = ends_.back() / 8;
  append_id(bits_, id, cfg_);
  append_list(bits_, neighbors, cfg_);
  ends_.push_back(bits_.size());
  pack_from(first);
}

void SignedBody::pack_from(std::size_t first) {
  // Whole words from the one holding byte `first`: a word's eight bytes,
  // MSB-first, are its big-endian image. The last word stores only the
  // bytes bits_ reaches (its slack bits are zero).
  const std::size_t size = (bits_.size() + 7) / 8;
  bytes_.resize(size);
  const std::span<const std::uint64_t> words = bits_.words();
  for (std::size_t at = first / 8 * 8; at < size; at += 8) {
    std::uint64_t word = words[at / 8];
    if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
    std::memcpy(bytes_.data() + at, &word, std::min<std::size_t>(8, size - at));
  }
}

}  // namespace jrsnd::core
