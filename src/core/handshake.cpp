#include "core/handshake.hpp"

#include <algorithm>

#include "obs/flight_recorder.hpp"
#include "obs/prof/perf_counters.hpp"

namespace jrsnd::core {

double RetryPolicy::nominal_backoff_s(std::uint32_t retx) const noexcept {
  if (retx == 0) return 0.0;
  double backoff = backoff_base_s;
  for (std::uint32_t i = 1; i < retx; ++i) {
    backoff *= backoff_factor;
    if (backoff >= backoff_max_s) break;
  }
  return std::min(backoff, backoff_max_s);
}

void RetryState::on_send() noexcept {
  if (completed_ || exhausted_) return;
  ++attempts_;
}

std::optional<Duration> RetryState::on_timeout() {
  if (completed_ || exhausted_ || !policy_->enabled()) return std::nullopt;
  if (retransmissions() >= policy_->max_retx) {
    exhausted_ = true;
    return std::nullopt;
  }
  // Grant retransmission number retransmissions()+1; draw jitter only now,
  // so exhausted/completed paths cost zero RNG draws.
  const double nominal = policy_->nominal_backoff_s(retransmissions() + 1);
  double factor = 1.0;
  if (policy_->jitter > 0.0) {
    factor += policy_->jitter * (2.0 * rng_->uniform01() - 1.0);
  }
  return Duration{std::max(0.0, nominal * factor)};
}

const char* handshake_stage_name(HandshakeStage stage) noexcept {
  switch (stage) {
    case HandshakeStage::Hello: return "hello";
    case HandshakeStage::Confirm: return "confirm";
    case HandshakeStage::Auth1: return "auth1";
    case HandshakeStage::Auth2: return "auth2";
    case HandshakeStage::Done: return "done";
    case HandshakeStage::Failed: return "failed";
  }
  return "?";
}

HandshakeStateMachine::HandshakeStateMachine(const RetryPolicy& policy, Rng& rng,
                                             double clock_rate) noexcept
    : policy_(policy),
      rng_(&rng),
      clock_rate_(clock_rate > 0.0 ? clock_rate : 1.0),
      retry_(policy_, rng) {}

void HandshakeStateMachine::on_send() noexcept {
  if (terminal()) return;
  retry_.on_send();
}

void HandshakeStateMachine::on_delivered() noexcept {
  if (terminal()) return;
  retry_.on_delivered();
  switch (stage_) {
    case HandshakeStage::Hello: stage_ = HandshakeStage::Confirm; break;
    case HandshakeStage::Confirm: stage_ = HandshakeStage::Auth1; break;
    case HandshakeStage::Auth1: stage_ = HandshakeStage::Auth2; break;
    case HandshakeStage::Auth2: stage_ = HandshakeStage::Done; break;
    case HandshakeStage::Done:
    case HandshakeStage::Failed: return;
  }
  if (stage_ != HandshakeStage::Done) {
    retry_ = RetryState(policy_, *rng_);
  }
}

std::optional<Duration> HandshakeStateMachine::on_timeout() {
  if (terminal()) return std::nullopt;
  ++timeouts_;
  // A timeout means we waited one full timeout interval, measured on the
  // local (possibly drifting) clock.
  elapsed_ += Duration{policy_.timeout_s * clock_rate_};
  auto backoff = retry_.on_timeout();
  if (!backoff) {
    // Flight-only (never JSONL): postmortems see which stage ran dry without
    // perturbing the deterministic trace stream.
    obs::flight_note("hs.exhausted", static_cast<std::uint64_t>(stage_));
    stage_ = HandshakeStage::Failed;
    return std::nullopt;
  }
  ++total_retransmissions_;
  elapsed_ += *backoff;
  obs::flight_note("hs.retx", total_retransmissions_);
  return backoff;
}

// --- HandshakeVerifier ------------------------------------------------------

crypto::VerifyWire verify_wire_from(const WireConfig& wire) noexcept {
  crypto::VerifyWire out;
  out.l_t = wire.l_t;
  out.l_id = wire.l_id;
  out.l_n = wire.l_n;
  out.l_mac = wire.l_mac;
  out.auth_type = static_cast<std::uint32_t>(MessageType::Auth);
  return out;
}

std::uint64_t ibc_pair_cache_key(std::uint32_t self, std::uint32_t peer) noexcept {
  const std::uint32_t lo = std::min(self, peer);
  const std::uint32_t hi = std::max(self, peer);
  return (std::uint64_t{lo} << 32) | hi;
}

std::uint64_t IbcPairKeySource::cache_key(std::uint32_t sender) const noexcept {
  return ibc_pair_cache_key(raw(receiver->id()), sender);
}

crypto::SymmetricKey IbcPairKeySource::key_for(std::uint32_t sender) const {
  return receiver->shared_key(node_id(sender));
}

const crypto::PinnedKey& derive_end_key(std::optional<crypto::PinnedKey>& slot,
                                        const crypto::IbcPrivateKey& self, NodeId peer) {
  const std::uint64_t cache_key = ibc_pair_cache_key(raw(self.id()), raw(peer));
  if (!slot || slot->cache_key != cache_key) {
    const crypto::SymmetricKey key = self.shared_key(peer);
    slot.emplace(crypto::PinnedKey{cache_key, crypto::PairKey{key, crypto::HmacKey(key)}});
  }
  return *slot;
}

HandshakeVerifier::HandshakeVerifier(const WireConfig& wire)
    : queue_(verify_wire_from(wire)) {}

AuthVerdict HandshakeVerifier::verify_auth(const BitVector& frame, CodeId frame_code,
                                           CodeId expected_code,
                                           const crypto::IbcPrivateKey& receiver,
                                           const crypto::PinnedKey* pinned) {
  AuthVerdict verdict;
  verify_auth(frame, frame_code, expected_code, receiver, pinned, verdict);
  return verdict;
}

void HandshakeVerifier::verify_auth(const BitVector& frame, CodeId frame_code,
                                    CodeId expected_code, const crypto::IbcPrivateKey& receiver,
                                    const crypto::PinnedKey* pinned, AuthVerdict& out) {
  JRSND_PERF_REGION("dndp.verify");
  source_.receiver = &receiver;
  const crypto::VerifyResult result =
      queue_.verify_now(frame, raw(frame_code), raw(expected_code), source_, pinned);
  out.stage = result.stage;
  out.sender = result.stage != crypto::VerifyStage::RejectLength &&
                       result.stage != crypto::VerifyStage::RejectFormat
                   ? node_id(result.sender)
                   : kInvalidNode;
  out.nonce.clear();
  if (result.stage == crypto::VerifyStage::Accept) {
    // l_n <= 64 (VerifyWire), so the nonce is one field read.
    const crypto::VerifyWire& w = queue_.wire();
    out.nonce.append_uint(frame.read_uint(std::size_t{w.l_t} + w.l_id, w.l_n), w.l_n);
  }
}

}  // namespace jrsnd::core
