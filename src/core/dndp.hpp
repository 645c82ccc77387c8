// D-NDP: the Direct Neighbor Discovery Protocol (paper §V-B).
//
// Four-message handshake between an initiator A and a responder B that share
// at least one non-revoked pool code:
//
//   1. A -> * : {HELLO, ID_A}_{C_i}          (broadcast under all m codes)
//   2. B -> A : {CONFIRM, ID_B}_{C_i}
//   3. A -> B : {ID_A, n_A, f_{K_AB}(ID_A|n_A)}_{C_i}
//   4. B -> A : {ID_B, n_B, f_{K_BA}(ID_B|n_B)}_{C_i}
//
// with K_AB = K_BA the non-interactive ID-based pairwise key. On success
// both sides derive the session spread code C_AB = h_{K_AB}(n_A ^ n_B) and
// record each other as authenticated logical neighbors.
//
// Redundancy design: when x >= 2 codes are shared, all x sub-sessions run
// the full exchange (same nonces, same resulting session code); discovery
// fails only if every sub-session fails. The engine executes the real
// cryptography — nonces, MAC computation/verification, session-code
// derivation — over whichever PhyModel it is given, once per pair and end
// rather than once per sub-session. Every delivered AUTH frame is settled
// and counted; one that repeats, bit for bit and under the same key, the
// frame that direction last verified reuses that verdict instead of
// recomputing its MAC.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/handshake.hpp"
#include "core/jrsnd_node.hpp"
#include "core/messages.hpp"
#include "core/params.hpp"
#include "core/phy_model.hpp"

namespace jrsnd::core {

struct DndpResult {
  bool discovered = false;
  std::optional<CodeId> winning_code;  ///< pool code of the first complete sub-session
  std::uint32_t shared_codes = 0;      ///< x
  std::uint32_t hellos_delivered = 0;  ///< copies of the HELLO B recovered
  std::uint32_t subsessions_completed = 0;
  bool mac_failure = false;  ///< a MAC failed verification (tampering)
  std::uint32_t retransmissions = 0;  ///< retries spent across all sub-sessions
  std::uint32_t timeouts = 0;         ///< attempt timeouts that expired
};

/// The ascending intersection of two ascending pool-code lists, through a
/// bitset over code ids the instance owns: mark a's codes, probe b's in
/// order with a branch-free append, then clear a's marks. The result is
/// std::set_intersection's, element for element. Allocation-free once the
/// bitset covers the largest id seen and the result has held |b| codes.
class SharedCodes {
 public:
  /// Codes in both `a` and `b`, ascending; valid until the next call.
  [[nodiscard]] std::span<CodeId> intersect(std::span<const CodeId> a,
                                            std::span<const CodeId> b);

 private:
  std::vector<std::uint64_t> marks_;  ///< bit c set while c is one of a's codes
  std::vector<CodeId> shared_;
};

class DndpEngine {
 public:
  /// `redundancy` mirrors the paper's x-fold sub-session design; disabling
  /// it reproduces the naive pick-one-code variant the "intelligent attack"
  /// of §V-B defeats (ablated in bench/ablation_redundancy).
  ///
  /// `retry_seed` seeds the backoff-jitter Rng (used only when
  /// `params.retry` is enabled — the default policy makes the engine
  /// bit-identical to the unhardened one). `clock`, when given, scales the
  /// initiator's perceived timeouts by its local clock rate (fault layer).
  DndpEngine(const Params& params, PhyModel& phy, bool redundancy = true,
             std::uint64_t retry_seed = 0, const HandshakeClock* clock = nullptr);

  /// Runs the handshake with `a` as initiator. Updates both nodes' logical
  /// neighbor tables (and nothing else) on success.
  DndpResult run(NodeState& a, NodeState& b);

 private:
  /// Per-pair values every sub-session shares, reused across pairs. The
  /// nonces are drawn once per pair, so each frame below is a pure function
  /// of its sender, nonce and key: it is encoded on first use and re-encoded
  /// only if the key the sending end holds changes (tagged by that key's
  /// cache key; unset at the start of each pair). On the receiving side a
  /// later sub-session's delivered AUTH frame that equals the last one
  /// settled, under the same pinned key, reuses its verdict.
  struct PairState {
    BitVector nonce_a;
    BitVector nonce_b;
    BitVector hello;
    BitVector confirm;
    BitVector auth1;  ///< A's AUTH, under A's key context
    std::optional<std::uint64_t> auth1_key;
    BitVector auth2;  ///< B's AUTH, under B's key context
    std::optional<std::uint64_t> auth2_key;
    SettledAuth auth1_rx;  ///< B's verdict on A's AUTH
    SettledAuth auth2_rx;  ///< A's verdict on B's AUTH
    /// Every AUTH frame the pair settled, published once when it ends.
    crypto::VerifyQueue::DrainCounts verify_counts;
    /// What the first complete sub-session establishes (K_AB, C_AB).
    std::optional<LogicalNeighbor> winner;
  };

  /// Executes messages 2-4 of one sub-session on `tx`; returns false if any
  /// message is lost or rejected. The first sub-session to complete derives
  /// the session code into `pair_.winner`.
  [[nodiscard]] bool run_subsession(NodeState& a, NodeState& b, const TxCode& tx,
                                    HandshakeStateMachine& hs, DndpResult& result);

  /// One handshake message with the retry discipline: on transmission loss,
  /// waits out the stage timeout, re-arms the sub-session's jamming fate
  /// (each retransmission is a fresh radio event), and retransmits until
  /// delivery or budget exhaustion. With retries disabled this is exactly
  /// one `phy_.transmit_into` — no extra draws, no extra counters. Every
  /// transmission adds its frame's bits to `subsession_bits_`. A delivered
  /// frame lands in `rx_`.
  [[nodiscard]] bool transmit_with_retry(HandshakeStateMachine& hs, NodeId a, NodeId b,
                                         NodeId from, NodeId to, const TxCode& tx, TxClass cls,
                                         const BitVector& payload);

  const Params& params_;
  WireConfig wire_;
  /// Staged early-reject AUTH verification (length -> format -> code -> MAC)
  /// — the handshake-flood hardening. Decisions are bit-identical to the old
  /// decode + verify pair.
  HandshakeVerifier verifier_;
  /// Each end's key context (derive_end_key): A's for the id it decoded from
  /// the CONFIRM, B's for the sender AUTH1 claims. Each serves its end's own
  /// AUTH MAC, the verification of the frame that end receives and, at A,
  /// the session-code PRF; an end never verifies under the other's slot.
  /// Like the verifier's peer cache, they assume one IBC authority.
  std::optional<crypto::PinnedKey> a_key_;
  std::optional<crypto::PinnedKey> b_key_;
  SharedCodes shared_;  ///< usable-code intersection, reused across pairs
  PairState pair_;
  BitVector rx_;  ///< the frame last delivered; each is consumed before the next send
  PhyModel& phy_;
  bool redundancy_;
  Rng retry_rng_;
  const HandshakeClock* clock_;
  std::uint64_t trace_salt_;  ///< retry_seed; keys per-attempt trace ids
  std::uint64_t attempts_ = 0;
  /// Frame bits the current sub-session put on the air, retransmissions
  /// included: its span's `dur` charges them at (1+mu) N / R seconds a bit.
  std::uint64_t subsession_bits_ = 0;
};

}  // namespace jrsnd::core
