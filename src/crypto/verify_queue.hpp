// Batched handshake-frame verification (handshake-flood hardening).
//
// A receiver under a verification-flooding DoS sees a stream of AUTH frames,
// most of them garbage. The one-at-a-time path pays the full cost for every
// frame: BitVector decode (several allocations), a fresh pairwise-key
// derivation (2 SHA-256 compressions through the pairing oracle's cached
// master schedule), and a raw hmac_sha256 (4 more compressions). VerifyQueue restructures that work
// cheapest-check-first over a batch:
//
//   1. length  — frame size != l_t + l_id + l_n + l_mac      (integer compare)
//   2. format  — the l_t-bit type tag is not AUTH             (one read_uint)
//   3. code    — the frame's spread code != the expected one  (integer compare)
//   4. MAC     — recompute f_K(ID | n) and compare l_mac bits (2 compressions
//                via a cached HMAC midstate, amortized per peer)
//
// Stages 1-3 touch no crypto and allocate nothing; stage 4 reuses a per-peer
// HmacKey schedule cached across batches, assembles the MAC input in a fixed
// on-stack buffer, and compares against the wire bits in place (constant-time
// OR-accumulate). drain() orders the batch so the cheap stages run first
// over every frame and each peer's schedule is resolved once per batch;
// each survivor's MAC is then the same single-frame check verify_now runs.
// The decision — and the per-stage crypto.reject.* counters —
// are bit-identical to oracle::verify_one_shot (tests/oracle), the
// historical decode-then-verify reference, which bench/dos_throughput
// proves in-binary before timing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bit_vector.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prf.hpp"

namespace jrsnd::crypto {

/// The AUTH-frame geometry the queue verifies against (mirrors the core
/// layer's WireConfig without depending on it). Limits: l_mac <= 256 (the
/// digest width), l_n <= 64 and l_id <= 32 (single read_uint extraction).
struct VerifyWire {
  std::uint32_t l_t = 5;
  std::uint32_t l_id = 16;
  std::uint32_t l_n = 20;
  std::uint32_t l_mac = 160;
  std::uint32_t auth_type = 3;  ///< MessageType::Auth on the wire

  [[nodiscard]] std::size_t frame_bits() const noexcept {
    return std::size_t{l_t} + l_id + l_n + l_mac;
  }
};

/// Verdict stages, ordered by the cost of reaching them. Everything but
/// Accept names the (cheapest) check that killed the frame.
enum class VerifyStage : std::uint8_t {
  Accept,
  RejectLength,  ///< wrong frame size (includes truncation)
  RejectFormat,  ///< right size, wrong type tag
  RejectCode,    ///< well-formed but on a spread code we are not expecting
  RejectMac,     ///< survived the cheap stages; the MAC does not verify
};

[[nodiscard]] const char* verify_stage_name(VerifyStage stage) noexcept;

/// Per-frame verdict. `sender` is the decoded l_id-bit ID field (valid from
/// RejectCode onward — earlier stages never parse it). `key` is the pairwise
/// key the MAC verified under, populated only on Accept.
struct VerifyResult {
  VerifyStage stage = VerifyStage::RejectLength;
  std::uint32_t sender = 0;
  SymmetricKey key{};
};

/// Where pairwise keys come from. `cache_key` must identify the pairwise key
/// a claimed sender maps to (for the symmetric IBC keys: the unordered
/// {receiver, sender} pair); `key_for` derives it — called only on a
/// schedule-cache miss, so it may allocate.
class KeySource {
 public:
  virtual ~KeySource() = default;
  [[nodiscard]] virtual std::uint64_t cache_key(std::uint32_t sender) const noexcept = 0;
  [[nodiscard]] virtual SymmetricKey key_for(std::uint32_t sender) const = 0;
};

/// A pairwise key with its HMAC key schedule.
struct PairKey {
  SymmetricKey raw{};
  HmacKey schedule;
};

/// A pairwise key the caller resolved ahead of time, tagged with the
/// KeySource::cache_key it was derived for. verify_now checks a frame's MAC
/// under it only when the frame's claimed sender maps to that same cache key.
struct PinnedKey {
  std::uint64_t cache_key = 0;
  PairKey key;
};

class VerifyQueue {
 public:
  explicit VerifyQueue(const VerifyWire& wire);

  [[nodiscard]] const VerifyWire& wire() const noexcept { return wire_; }

  /// Pre-sizes the pending list and scratch so a steady-state push/drain
  /// cycle of up to `frames` frames cannot allocate.
  void reserve(std::size_t frames);

  /// Enqueues a frame for the next drain(). The queue stores a pointer: the
  /// frame must stay alive and unmodified until drain() returns.
  void push(const BitVector& frame, std::uint32_t frame_code, std::uint32_t expected_code);

  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }

  /// Verifies every pending frame, appending one VerifyResult per frame into
  /// `out` (cleared first, same order as push). Returns the number accepted.
  /// MAC-stage survivors are grouped by peer so each peer's HMAC key schedule
  /// is resolved once per batch; allocation-free once reserve() capacity and
  /// the peer cache are warm.
  std::size_t drain(const KeySource& source, std::vector<VerifyResult>& out);

  /// Single-frame form of the same pipeline (shares the peer cache). This is
  /// what the D-NDP engine calls inline during a handshake. When `pinned`
  /// is given and the frame's claimed sender maps to pinned->cache_key, the
  /// MAC is checked under the pinned schedule and the peer cache is not
  /// consulted; any other sender resolves through `source` and the cache.
  [[nodiscard]] VerifyResult verify_now(const BitVector& frame, std::uint32_t frame_code,
                                        std::uint32_t expected_code, const KeySource& source,
                                        const PinnedKey* pinned = nullptr);

  /// The sender ID a frame claims, read only when the frame has AUTH length
  /// and type tag (the stages that gate parsing it); counts nothing.
  [[nodiscard]] std::optional<std::uint32_t> claimed_sender(const BitVector& frame) const noexcept;

  /// Drops every cached per-peer key schedule (tests; never needed in the
  /// steady state — the cache is capped).
  void clear_key_cache();

  [[nodiscard]] std::size_t cached_peers() const noexcept { return keys_.size(); }

  /// Peer-schedule cache cap: past this many distinct pairwise keys, misses
  /// fall back to an uncached schedule instead of growing the map.
  static constexpr std::size_t kMaxCachedPeers = 4096;

 private:
  struct Pending {
    const BitVector* frame;
    std::uint32_t frame_code;
    std::uint32_t expected_code;
  };
  struct MacWork {
    std::uint64_t cache_key;
    std::uint32_t index;  ///< position in the drained batch / output vector
  };
  struct DrainCounts {
    std::uint64_t length = 0;
    std::uint64_t format = 0;
    std::uint64_t code = 0;
    std::uint64_t mac = 0;
    std::uint64_t accepted = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;

    /// Adds these tallies to the crypto.reject.*, crypto.verify.accepted
    /// and crypto.verify.peer_cache.* counters.
    void publish() const;
  };

  /// Stages 1-3. Returns true when the frame must go to the MAC stage, in
  /// which case `out` carries the parsed sender.
  [[nodiscard]] bool cheap_stages(const Pending& p, VerifyResult& out,
                                  DrainCounts& counts) const noexcept;

  /// Stage 4 for one frame under an already-resolved key: recomputes
  /// f_K(ID | n), compares it with the wire MAC, sets `out`'s verdict (Accept
  /// with the key, or RejectMac) and counts it. drain and verify_now both
  /// settle every MAC-stage survivor here.
  void mac_stage(const BitVector& frame, const PairKey& entry, VerifyResult& out,
                 DrainCounts& counts) const noexcept;

  /// Compares the first l_mac bits of `expected` against the wire MAC field,
  /// in place, a word at a time (constant-time OR-accumulate).
  [[nodiscard]] bool wire_mac_equals(const BitVector& frame,
                                     const Sha256Digest& expected) const noexcept;

  /// Resolves (or creates / falls back) the cached key entry for one peer.
  const PairKey& resolve_key(std::uint64_t cache_key, std::uint32_t sender,
                             const KeySource& source, DrainCounts& counts);

  VerifyWire wire_;
  std::vector<Pending> pending_;
  std::vector<MacWork> mac_scratch_;
  std::unordered_map<std::uint64_t, PairKey> keys_;
  PairKey overflow_;  ///< reused slot for misses past kMaxCachedPeers
};

}  // namespace jrsnd::crypto
