// Wire formats of every JR-SND message (paper §V-B, §V-C).
//
// Messages are bit-granular: field widths come from Table I (l_t-bit type,
// l_id-bit node ID, l_n-bit nonce, l_mac-bit MAC, l_nu-bit hop limit,
// l_sig-bit ID-based signature). Each struct encodes to / decodes from a
// BitVector — the exact payload that is then ECC-expanded and spread. The
// cryptographic tags we compute are 256 bits; on the wire they occupy the
// paper's l_mac / l_sig widths (truncated MAC, zero-padded signature) so
// that transmission-time accounting matches the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bit_vector.hpp"
#include "common/types.hpp"
#include "crypto/ibc.hpp"

namespace jrsnd::core {

/// Field widths, from Params (see params.hpp).
struct WireConfig {
  std::uint32_t l_t = 5;
  std::uint32_t l_id = 16;
  std::uint32_t l_n = 20;
  std::uint32_t l_mac = 160;
  std::uint32_t l_nu = 4;
  std::uint32_t l_sig = 672;
};

enum class MessageType : std::uint8_t {
  Hello = 1,
  Confirm = 2,
  Auth = 3,
  MndpRequest = 4,
  MndpResponse = 5,
  MndpHello = 6,
  MndpConfirm = 7,
};

/// Reads the l_t-bit type tag without decoding the rest.
[[nodiscard]] std::optional<MessageType> peek_type(const BitVector& bits, const WireConfig& cfg);

// --- D-NDP messages -------------------------------------------------------

/// {HELLO, ID_A}: broadcast by the initiator under each of its m codes.
struct HelloMessage {
  NodeId sender = kInvalidNode;

  [[nodiscard]] BitVector encode(const WireConfig& cfg) const;
  /// encode() into `out` (cleared first), reusing its storage.
  void encode_into(BitVector& out, const WireConfig& cfg) const;
  [[nodiscard]] static std::optional<HelloMessage> decode(const BitVector& bits,
                                                          const WireConfig& cfg);
  [[nodiscard]] static std::size_t payload_bits(const WireConfig& cfg) {
    return cfg.l_t + cfg.l_id;
  }
};

/// {CONFIRM, ID_B}: the responder's reply under the shared code.
struct ConfirmMessage {
  NodeId sender = kInvalidNode;

  [[nodiscard]] BitVector encode(const WireConfig& cfg) const;
  /// encode() into `out` (cleared first), reusing its storage.
  void encode_into(BitVector& out, const WireConfig& cfg) const;
  [[nodiscard]] static std::optional<ConfirmMessage> decode(const BitVector& bits,
                                                            const WireConfig& cfg);
  [[nodiscard]] static std::size_t payload_bits(const WireConfig& cfg) {
    return cfg.l_t + cfg.l_id;
  }
};

/// {ID, n, f_K(ID | n)}: both authentication messages have this shape.
struct AuthMessage {
  NodeId sender = kInvalidNode;
  BitVector nonce;           ///< l_n bits
  crypto::Sha256Digest mac{};  ///< truncated to l_mac bits on the wire

  /// Computes the MAC f_K(ID | nonce) under K's HMAC schedule and assembles
  /// the message.
  [[nodiscard]] static AuthMessage make(NodeId sender, BitVector nonce,
                                        const crypto::HmacKey& key, const WireConfig& cfg);

  /// Same message from the raw key (builds the schedule per call).
  [[nodiscard]] static AuthMessage make(NodeId sender, BitVector nonce,
                                        const crypto::SymmetricKey& key, const WireConfig& cfg);

  /// The frame make(sender, nonce, key, cfg).encode(cfg) returns, written
  /// into `out` (cleared first) without building the message: the MAC
  /// input is streamed from the stack, and `out`'s storage is reused.
  static void make_into(NodeId sender, const BitVector& nonce, const crypto::HmacKey& key,
                        const WireConfig& cfg, BitVector& out);

  /// Recomputes the MAC under `key` and compares with the received one
  /// (over the l_mac wire bits).
  [[nodiscard]] bool verify(const crypto::SymmetricKey& key, const WireConfig& cfg) const;

  [[nodiscard]] BitVector encode(const WireConfig& cfg) const;
  [[nodiscard]] static std::optional<AuthMessage> decode(const BitVector& bits,
                                                         const WireConfig& cfg);
  [[nodiscard]] static std::size_t payload_bits(const WireConfig& cfg) {
    return cfg.l_t + cfg.l_id + cfg.l_n + cfg.l_mac;
  }
};

// --- M-NDP messages --------------------------------------------------------

/// One forwarding hop's contribution: its ID, logical neighbor list, and
/// signature over everything that preceded it in the message.
struct HopRecord {
  NodeId id = kInvalidNode;
  std::vector<NodeId> neighbors;
  crypto::IbcSignature signature{};

  bool operator==(const HopRecord&) const = default;
};

/// A message's hop records, in path order. A vector whose clear() keeps the
/// dropped records (and their list storage) for the next append(), so a
/// message reused as decode scratch reads hop lists without allocating once
/// it has held as many, as long, before.
class HopList {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] HopRecord& operator[](std::size_t i) noexcept { return records_[i]; }
  [[nodiscard]] const HopRecord& operator[](std::size_t i) const noexcept { return records_[i]; }
  [[nodiscard]] HopRecord& back() noexcept { return records_[size_ - 1]; }
  [[nodiscard]] const HopRecord& back() const noexcept { return records_[size_ - 1]; }
  [[nodiscard]] HopRecord* begin() noexcept { return records_.data(); }
  [[nodiscard]] HopRecord* end() noexcept { return records_.data() + size_; }
  [[nodiscard]] const HopRecord* begin() const noexcept { return records_.data(); }
  [[nodiscard]] const HopRecord* end() const noexcept { return records_.data() + size_; }

  /// Appends a record and returns it. It may be a dropped record, still
  /// holding that record's values: the caller sets every field.
  HopRecord& append() {
    if (size_ == records_.size()) records_.emplace_back();
    return records_[size_++];
  }
  void push_back(const HopRecord& hop) { append() = hop; }
  void clear() noexcept { size_ = 0; }

  bool operator==(const HopList& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  std::vector<HopRecord> records_;
  std::size_t size_ = 0;
};

/// {ID_A, L_A, n_A, nu, SIG_A, (ID_C, L_C, SIG_C), ...}: the source's signed
/// request, extended hop by hop.
struct MndpRequest {
  NodeId source = kInvalidNode;
  std::vector<NodeId> source_neighbors;
  BitVector nonce;  ///< l_n bits
  std::uint32_t nu = 2;
  crypto::IbcSignature source_signature{};
  HopList hops;  ///< forwarders, in path order (excludes source)

  /// Number of hops the request has traversed so far (= hops.size() + 1 for
  /// the link it is about to cross).
  [[nodiscard]] std::uint32_t hops_traversed() const noexcept {
    return static_cast<std::uint32_t>(hops.size()) + 1;
  }

  [[nodiscard]] BitVector encode(const WireConfig& cfg) const;
  [[nodiscard]] static std::optional<MndpRequest> decode(const BitVector& bits,
                                                         const WireConfig& cfg);
  [[nodiscard]] std::size_t payload_bits(const WireConfig& cfg) const;

  /// encode() into `out` (cleared first); allocation-free once `out` has
  /// held a message as long.
  void encode_into(BitVector& out, const WireConfig& cfg) const;
  /// decode() into `out`, reusing its storage: on success every field of
  /// `out` is the decoded message's, whatever `out` held; on failure `out`
  /// is left in an unspecified (but valid) state.
  [[nodiscard]] static bool decode_into(const BitVector& bits, const WireConfig& cfg,
                                        MndpRequest& out);

  /// The dedup key (source, nonce) a relay remembers the request by.
  [[nodiscard]] std::uint64_t key() const noexcept;
  /// The same key read from the wire header alone (type, ID, list count,
  /// the list skipped, nonce), without decoding the rest; nullopt when the
  /// header is not a request's or is cut short. Equal to decode(bits)->key()
  /// whenever that decode succeeds.
  [[nodiscard]] static std::optional<std::uint64_t> peek_key(const BitVector& bits,
                                                             const WireConfig& cfg);

  bool operator==(const MndpRequest&) const = default;
};

/// {ID_A, ID_C, ID_B, L_B, n_B, nu, SIG_B, (L_C, SIG_C), ...}: the
/// destination's signed response, extended along the reverse path.
struct MndpResponse {
  NodeId source = kInvalidNode;       ///< ID_A: the original initiator
  NodeId via = kInvalidNode;          ///< ID_C: the neighbor B replies through
  NodeId responder = kInvalidNode;    ///< ID_B
  std::vector<NodeId> responder_neighbors;
  BitVector nonce;  ///< n_B, l_n bits
  std::uint32_t nu = 2;
  crypto::IbcSignature responder_signature{};
  HopList hops;  ///< reverse-path forwarders

  [[nodiscard]] BitVector encode(const WireConfig& cfg) const;
  [[nodiscard]] static std::optional<MndpResponse> decode(const BitVector& bits,
                                                          const WireConfig& cfg);
  [[nodiscard]] std::size_t payload_bits(const WireConfig& cfg) const;

  /// As MndpRequest::encode_into / decode_into.
  void encode_into(BitVector& out, const WireConfig& cfg) const;
  [[nodiscard]] static bool decode_into(const BitVector& bits, const WireConfig& cfg,
                                        MndpResponse& out);

  bool operator==(const MndpResponse&) const = default;
};

/// What an M-NDP message's signatures cover, encoded once per message. The
/// body is the leading block — the request's (type, ID_A, L_A, n_A, nu) or the
/// response's (type, ID_A, ID_C, ID_B, L_B, n_B, nu) — followed by each hop's
/// (ID, list). Signature j covers the first prefix_bits(j) bits: j = 0 is
/// the leader's (source or responder), j = k + 1 is hops[k]'s, so every
/// signer covers everything that preceded it. A hop block is
/// l_id + 16 + l_id * |L| bits, so prefixes are generally not byte-aligned;
/// the signature primitives take (bytes(), prefix_bits(j)) and mask the
/// final partial byte, which gives the bytes a prefix packed on its own has.
class SignedBody {
 public:
  /// An empty body; assign() a message before use.
  explicit SignedBody(const WireConfig& cfg) : cfg_(cfg) {}
  SignedBody(const MndpRequest& req, const WireConfig& cfg);
  SignedBody(const MndpResponse& resp, const WireConfig& cfg);

  /// Re-encodes the body for another message, reusing this body's storage:
  /// the same bytes and prefixes a body constructed from `req` / `resp` has.
  void assign(const MndpRequest& req);
  void assign(const MndpResponse& resp);

  /// Appends a forwarder's block; its signature is then the last prefix.
  void append_hop(NodeId id, std::span<const NodeId> neighbors);

  /// Number of signatures the body carries: 1 + hops.
  [[nodiscard]] std::size_t prefixes() const noexcept { return ends_.size(); }
  [[nodiscard]] std::size_t prefix_bits(std::size_t j) const { return ends_.at(j); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept { return bytes_; }

  /// Signature j under `key`; `own` is key.signing_key(), built once by a
  /// caller that signs repeatedly (see IbcPrivateKey::sign).
  [[nodiscard]] crypto::IbcSignature sign(const crypto::IbcPrivateKey& key,
                                          const crypto::SignerKey& own, std::size_t j) const {
    return key.sign(own, bytes_, prefix_bits(j));
  }

  /// Whether `sig` is signer.id's signature j (`signer` from
  /// PairingOracle::signer_key of the claimed signer).
  [[nodiscard]] bool verify(const crypto::SignerKey& signer, std::size_t j,
                            const crypto::IbcSignature& sig) const {
    return crypto::PairingOracle::verify(signer, bytes_, prefix_bits(j), sig);
  }

 private:
  /// Marks the leading block's end, appends `hops`' blocks, packs bytes_.
  void append_hops(const HopList& hops);
  /// Packs bits_ into bytes_ from byte `first` on, a word at a time.
  void pack_from(std::size_t first);

  WireConfig cfg_;
  BitVector bits_;
  std::vector<std::uint8_t> bytes_;  ///< bits_ packed MSB-first
  std::vector<std::size_t> ends_;    ///< bit length of each signed prefix
};

// --- helpers ----------------------------------------------------------------

/// Truncates a 256-bit digest to the l_mac wire width for comparison.
[[nodiscard]] BitVector truncate_digest(const crypto::Sha256Digest& digest, std::uint32_t bits);

}  // namespace jrsnd::core
