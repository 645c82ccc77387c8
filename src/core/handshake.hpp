// Handshake hardening: per-stage timeout, bounded retransmission, and seeded
// exponential backoff with jitter.
//
// The paper's evaluation (§VI) treats a D-NDP handshake as one-shot: a single
// jammed or dropped message kills the pair. AntiJam-style backoff discipline
// (PAPERS.md) is what turns adversarial loss into graceful degradation, so the
// hardened engines wrap every message exchange in a RetryState — and the
// four-message D-NDP exchange in a HandshakeStateMachine that walks
// Hello -> Confirm -> Auth1 -> Auth2 with a fresh retry budget per stage.
//
// Everything here is deterministic: backoff jitter draws from the Rng the
// caller seeds, and a disabled policy (max_retx == 0, the default) makes no
// draws at all — the engines behave bit-identically to the unhardened code.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/messages.hpp"
#include "crypto/verify_queue.hpp"

namespace jrsnd::core {

/// Retry/timeout/backoff knobs for one protocol message stage. The default
/// (max_retx == 0) reproduces the paper's one-shot semantics exactly.
struct RetryPolicy {
  std::uint32_t max_retx = 0;    ///< retransmissions allowed beyond the first send
  double timeout_s = 0.05;       ///< per-attempt response timeout (nominal clock)
  double backoff_base_s = 0.02;  ///< backoff before the first retransmission
  double backoff_factor = 2.0;   ///< exponential growth per retransmission
  double backoff_max_s = 1.0;    ///< backoff cap
  double jitter = 0.1;           ///< +- fraction randomizing each backoff

  [[nodiscard]] bool enabled() const noexcept { return max_retx > 0; }

  /// Nominal (jitter-free) backoff before retransmission `retx` (1-based).
  [[nodiscard]] double nominal_backoff_s(std::uint32_t retx) const noexcept;
};

/// Maps a node to its local clock rate (1.0 = nominal). Implemented by the
/// fault layer's ClockModel; a drifting clock mis-measures its timeouts.
class HandshakeClock {
 public:
  virtual ~HandshakeClock() = default;
  [[nodiscard]] virtual double rate(NodeId node) const = 0;
};

/// Retry bookkeeping for one message stage. Invariants (pinned by the
/// property suite in tests/core_handshake_retry_test.cpp):
///   * retransmissions() <= policy.max_retx, always;
///   * nominal backoff is monotone non-decreasing and capped, and the
///     jittered value stays within [1-jitter, 1+jitter] x nominal;
///   * after on_delivered(), on_timeout() returns nullopt and draws nothing.
class RetryState {
 public:
  RetryState(const RetryPolicy& policy, Rng& rng) noexcept
      : policy_(&policy), rng_(&rng) {}

  /// Records a transmission attempt (first send and every retransmission).
  void on_send() noexcept;

  /// The attempt's response arrived; the stage is complete.
  void on_delivered() noexcept { completed_ = true; }

  /// The attempt's timeout expired. Returns the backoff to wait before the
  /// next retransmission, or nullopt when the stage is complete, the budget
  /// is exhausted, or the policy is disabled. Draws jitter only when a
  /// retransmission is actually granted.
  [[nodiscard]] std::optional<Duration> on_timeout();

  [[nodiscard]] std::uint32_t attempts() const noexcept { return attempts_; }
  [[nodiscard]] std::uint32_t retransmissions() const noexcept {
    return attempts_ > 0 ? attempts_ - 1 : 0;
  }
  [[nodiscard]] bool completed() const noexcept { return completed_; }
  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }

 private:
  const RetryPolicy* policy_;
  Rng* rng_;
  std::uint32_t attempts_ = 0;
  bool completed_ = false;
  bool exhausted_ = false;
};

/// The four paper-faithful D-NDP stages plus the two terminal states.
enum class HandshakeStage : std::uint8_t { Hello, Confirm, Auth1, Auth2, Done, Failed };

[[nodiscard]] const char* handshake_stage_name(HandshakeStage stage) noexcept;

/// Per-pair (per-sub-session) handshake driver: one RetryState per stage,
/// stages advance on delivery, any exhausted stage fails the whole
/// handshake. Also accounts the virtual time the retry discipline costs
/// (timeouts measured on the initiator's possibly-drifting clock, plus
/// backoffs), which the latency model can fold in.
class HandshakeStateMachine {
 public:
  /// `clock_rate` scales perceived timeouts (fault-layer clock drift).
  HandshakeStateMachine(const RetryPolicy& policy, Rng& rng,
                        double clock_rate = 1.0) noexcept;

  [[nodiscard]] HandshakeStage stage() const noexcept { return stage_; }
  [[nodiscard]] bool done() const noexcept { return stage_ == HandshakeStage::Done; }
  [[nodiscard]] bool failed() const noexcept { return stage_ == HandshakeStage::Failed; }
  [[nodiscard]] bool terminal() const noexcept { return done() || failed(); }

  /// Records a send of the current stage's message. No-op once terminal.
  void on_send() noexcept;

  /// Current stage delivered; advances to the next stage (or Done).
  void on_delivered() noexcept;

  /// Current attempt timed out. Returns the backoff granted before the next
  /// retransmission; nullopt transitions the machine to Failed (budget
  /// exhausted) or reports an already-terminal machine without drawing.
  [[nodiscard]] std::optional<Duration> on_timeout();

  /// Total retransmissions across completed and current stages.
  [[nodiscard]] std::uint32_t retransmissions() const noexcept {
    return total_retransmissions_;
  }
  /// Timeouts that expired (each failed attempt costs one).
  [[nodiscard]] std::uint32_t timeouts() const noexcept { return timeouts_; }
  /// Virtual time spent waiting: expired timeouts (local clock) + backoffs.
  [[nodiscard]] Duration elapsed() const noexcept { return elapsed_; }

 private:
  RetryPolicy policy_;
  Rng* rng_;
  double clock_rate_;
  HandshakeStage stage_ = HandshakeStage::Hello;
  RetryState retry_;
  std::uint32_t total_retransmissions_ = 0;
  std::uint32_t timeouts_ = 0;
  Duration elapsed_{0.0};
};

/// Verdict of the staged AUTH-frame verification. `sender` is the claimed ID
/// (valid once the frame parsed, i.e. from RejectCode onward); `nonce` is
/// populated only on Accept — the verified nonce the session code needs.
struct AuthVerdict {
  crypto::VerifyStage stage = crypto::VerifyStage::RejectLength;
  NodeId sender = kInvalidNode;
  BitVector nonce;  ///< l_n bits, Accept only

  [[nodiscard]] bool accepted() const noexcept {
    return stage == crypto::VerifyStage::Accept;
  }
  /// True when the frame survived the cheap stages but its MAC failed — the
  /// only reject the engine attributes to tampering (mac_failure).
  [[nodiscard]] bool mac_rejected() const noexcept {
    return stage == crypto::VerifyStage::RejectMac;
  }
};

/// What one AUTH direction of a D-NDP pair has settled: the delivered frame
/// last verified in full under the receiving end's pinned key, that key's
/// cache id, and the verdict reached on those bits.
struct SettledAuth {
  BitVector frame;
  std::optional<std::uint64_t> key;  ///< unset: nothing kept (each pair starts so)
  AuthVerdict verdict;
};

/// The crypto::VerifyQueue view of `wire`'s AUTH frame layout.
[[nodiscard]] crypto::VerifyWire verify_wire_from(const WireConfig& wire) noexcept;

/// Packs the unordered {self, peer} id pair: exactly what the symmetric IBC
/// shared_key(self, peer) depends on.
[[nodiscard]] std::uint64_t ibc_pair_cache_key(std::uint32_t self, std::uint32_t peer) noexcept;

/// Pairwise-key source over a receiver's IBC private key: the one the D-NDP
/// engine verifies under and the one flood benches feed a VerifyQueue. The
/// cache key is ibc_pair_cache_key(receiver id, sender) — so one engine's
/// cache is shared between both handshake directions.
struct IbcPairKeySource final : public crypto::KeySource {
  const crypto::IbcPrivateKey* receiver = nullptr;

  [[nodiscard]] std::uint64_t cache_key(std::uint32_t sender) const noexcept override;
  [[nodiscard]] crypto::SymmetricKey key_for(std::uint32_t sender) const override;
};

/// One handshake end's key context: K = self.shared_key(peer) and its HMAC
/// schedule, kept in `slot` and re-derived only when (self, peer) names a
/// different pair than the one it holds. The slot is tagged with the cache
/// key of the id the private key was *issued* to (self.id()), never an id a
/// node merely claims, so it can only hold what its own end's derivation
/// yields — a captured key used under a false identity never matches the
/// victim's slot. Replacing the slot builds one schedule (2 compressions
/// on top of the derivation's 2); a matching slot costs nothing.
const crypto::PinnedKey& derive_end_key(std::optional<crypto::PinnedKey>& slot,
                                        const crypto::IbcPrivateKey& self, NodeId peer);

/// The early-reject verification front-end of the D-NDP engine: a
/// crypto::VerifyQueue bound to the IBC pairwise-key source, ordering every
/// check cheapest-first (length -> format -> session-code -> MAC) and caching
/// per-peer HMAC key schedules across calls. Accept/reject decisions are
/// bit-identical to the historical AuthMessage::decode + verify path (pinned
/// by tests/crypto_verify_queue_test.cpp and bench/dos_throughput).
class HandshakeVerifier {
 public:
  explicit HandshakeVerifier(const WireConfig& wire);

  /// Verifies one received AUTH frame claimed to arrive on `frame_code`
  /// while the receiver listens on `expected_code`, under `receiver`'s IBC
  /// key. `pinned`, when given, is the receiving end's own key context (see
  /// derive_end_key): a frame whose claimed sender maps to it is checked
  /// under its schedule; any other sender goes through the peer cache.
  /// Allocation-free on every reject path once the peer cache is warm.
  [[nodiscard]] AuthVerdict verify_auth(const BitVector& frame, CodeId frame_code,
                                        CodeId expected_code,
                                        const crypto::IbcPrivateKey& receiver,
                                        const crypto::PinnedKey* pinned = nullptr);

  /// Settles one delivered D-NDP AUTH frame (received on the code it was
  /// sent on) into `settled.verdict`, tallying its stage into `counts`
  /// without publishing. A frame equal bit for bit to `settled.frame` under
  /// the same `pinned` key reuses the kept verdict: the check is a pure
  /// function of the bits and that key. Any other frame, or no pinned key,
  /// is verified in full; its verdict is kept when its MAC was checked
  /// under `pinned`, and otherwise nothing is kept.
  void settle_auth(const BitVector& frame, CodeId code, const crypto::IbcPrivateKey& receiver,
                   const crypto::PinnedKey* pinned, SettledAuth& settled,
                   crypto::VerifyQueue::DrainCounts& counts);

  [[nodiscard]] const crypto::VerifyQueue& queue() const noexcept { return queue_; }

 private:
  /// verify_auth() into a caller-owned verdict, tallying into `counts`
  /// instead of publishing. Every field of `out` is set, and the nonce
  /// reuses `out.nonce`'s storage, so a warm verdict makes the call
  /// allocation-free on the accept path too.
  void check(const BitVector& frame, CodeId frame_code, CodeId expected_code,
             const crypto::IbcPrivateKey& receiver, const crypto::PinnedKey* pinned,
             AuthVerdict& out, crypto::VerifyQueue::DrainCounts& counts);

  crypto::VerifyQueue queue_;
  IbcPairKeySource source_;
};

}  // namespace jrsnd::core
