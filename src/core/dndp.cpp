#include "core/dndp.hpp"

#include <algorithm>

#include "crypto/session_code.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/span.hpp"

namespace jrsnd::core {

std::span<CodeId> SharedCodes::intersect(std::span<const CodeId> a, std::span<const CodeId> b) {
  if (a.empty() || b.empty()) return {};
  // Both lists ascend, so their last ids bound the bitset.
  const std::size_t top = std::max(raw(a.back()), raw(b.back()));
  if (marks_.size() <= top / 64) marks_.resize(top / 64 + 1, 0);
  for (const CodeId c : a) marks_[raw(c) / 64] |= std::uint64_t{1} << (raw(c) % 64);
  // Every code of b is written; the count advances only past marked ones,
  // so there is no data-dependent branch to mispredict.
  if (shared_.size() < b.size()) shared_.resize(b.size());
  std::size_t count = 0;
  for (const CodeId c : b) {
    shared_[count] = c;
    count += (marks_[raw(c) / 64] >> (raw(c) % 64)) & 1;
  }
  for (const CodeId c : a) marks_[raw(c) / 64] = 0;  // only a's bits were set
  return {shared_.data(), count};
}

DndpEngine::DndpEngine(const Params& params, PhyModel& phy, bool redundancy,
                       std::uint64_t retry_seed, const HandshakeClock* clock)
    : params_(params),
      wire_(params.wire()),
      verifier_(wire_),
      phy_(phy),
      redundancy_(redundancy),
      retry_rng_(retry_seed ^ 0xD1B54A32D192ED03ULL),
      clock_(clock),
      trace_salt_(retry_seed) {}

bool DndpEngine::transmit_with_retry(HandshakeStateMachine& hs, NodeId a, NodeId b, NodeId from,
                                     NodeId to, const TxCode& tx, TxClass cls,
                                     const BitVector& payload) {
  hs.on_send();
  subsession_bits_ += payload.size();
  if (phy_.transmit_into(from, to, tx, cls, payload, rx_)) {
    hs.on_delivered();
    return true;
  }
  if (!params_.retry.enabled()) return false;
  while (true) {
    JRSND_COUNT("dndp.timeout.expired");
    const auto backoff = hs.on_timeout();
    if (!backoff) {
      JRSND_COUNT("dndp.timeout.exhausted");
      // Exhausting the retry budget IS the failure when retries are on,
      // except when the peer is inside an injected crash window — retrying
      // into a dead node is a crash loss, not a timing one.
      const obs::LossStage last = obs::take_loss_reason();
      obs::set_loss_reason(last == obs::LossStage::Crash ? last : obs::LossStage::Timeout);
      return false;
    }
    JRSND_COUNT("dndp.retx.attempts");
    // Re-arm the sub-session's jamming fate: a retransmission after backoff
    // is a fresh radio event, not a replay of the already-drawn loss.
    phy_.begin_subsession(a, b, tx.id);
    hs.on_send();
    subsession_bits_ += payload.size();
    if (phy_.transmit_into(from, to, tx, cls, payload, rx_)) {
      JRSND_COUNT("dndp.retx.recovered");
      hs.on_delivered();
      return true;
    }
  }
}

bool DndpEngine::run_subsession(NodeState& a, NodeState& b, const TxCode& tx,
                                HandshakeStateMachine& hs, DndpResult& result) {
  const CodeId code = tx.id;
  PairState& pair = pair_;

  // 2. B -> A: {CONFIRM, ID_B}_{C_i}.
  if (!transmit_with_retry(hs, a.id(), b.id(), b.id(), a.id(), tx, TxClass::Confirm,
                           pair.confirm)) {
    return false;
  }
  const auto confirm_decoded = ConfirmMessage::decode(rx_, wire_);
  if (!confirm_decoded) {
    result.mac_failure = true;  // malformed after successful delivery: tampering
    obs::set_loss_reason(obs::LossStage::Corrupt);
    return false;
  }

  // 3. A -> B: {ID_A, n_A, f_{K_AB}(ID_A | n_A)}_{C_i}, keyed by A's own
  // derivation for the ID it decoded from the CONFIRM.
  const crypto::PinnedKey& key_a = derive_end_key(a_key_, a.key(), confirm_decoded->sender);
  if (pair.auth1_key != key_a.cache_key) {
    AuthMessage::make_into(a.id(), pair.nonce_a, key_a.key.schedule, wire_, pair.auth1);
    pair.auth1_key = key_a.cache_key;
  }
  if (!transmit_with_retry(hs, a.id(), b.id(), a.id(), b.id(), tx, TxClass::Auth, pair.auth1)) {
    return false;
  }

  // B derives its own key for the sender AUTH1 claims and verifies through
  // the staged early-reject pipeline (length -> format -> code -> MAC): equal
  // MACs prove A holds the key the authority issued for ID_A (mutual
  // authentication, paper §V-B). Only a MAC-stage reject is attributed to
  // tampering; a frame that fails the cheap stages is a decode failure.
  const std::optional<std::uint32_t> claimed = verifier_.queue().claimed_sender(rx_);
  const crypto::PinnedKey* key_b =
      claimed ? &derive_end_key(b_key_, b.key(), node_id(*claimed)) : nullptr;
  AuthVerdict& auth1_v = pair.auth1_verdict;
  verifier_.verify_auth(rx_, code, code, b.key(), key_b, auth1_v);
  if (!auth1_v.accepted()) {
    if (auth1_v.mac_rejected()) result.mac_failure = true;
    obs::set_loss_reason(obs::LossStage::Corrupt);
    return false;
  }

  // 4. B -> A: {ID_B, n_B, f_{K_BA}(ID_B | n_B)}_{C_i}, under the key AUTH1
  // verified under (an accepted frame parsed, so key_b is set).
  if (pair.auth2_key != key_b->cache_key) {
    AuthMessage::make_into(b.id(), pair.nonce_b, key_b->key.schedule, wire_, pair.auth2);
    pair.auth2_key = key_b->cache_key;
  }
  if (!transmit_with_retry(hs, a.id(), b.id(), b.id(), a.id(), tx, TxClass::Auth, pair.auth2)) {
    return false;
  }
  AuthVerdict& auth2_v = pair.auth2_verdict;
  verifier_.verify_auth(rx_, code, code, a.key(), &key_a, auth2_v);
  if (!auth2_v.accepted()) {
    if (auth2_v.mac_rejected()) result.mac_failure = true;
    obs::set_loss_reason(obs::LossStage::Corrupt);
    return false;
  }

  // Both ends derive C_AB = h_{K}(n_A ^ n_B); XOR makes it symmetric. Only
  // the first complete sub-session's code is kept, so later ones skip it.
  if (!pair.winner) {
    pair.winner = LogicalNeighbor{
        key_a.key.raw,
        crypto::derive_session_code(key_a.key.schedule, auth1_v.nonce, auth2_v.nonce, params_.N),
        false};
  }
  return true;
}

DndpResult DndpEngine::run(NodeState& a, NodeState& b) {
  DndpResult result;
  JRSND_COUNT("dndp.runs");

  // One discovery attempt = one trace. The id is a pure function of the
  // engine's seed and the pair, so serial and parallel Monte-Carlo runs of
  // the same experiment produce identical trace ids.
  obs::Span root("dndp.attempt", obs::derive_trace_id(trace_salt_, raw(a.id()), raw(b.id()),
                                                      attempts_++));
  root.with_u64("a", raw(a.id()));
  root.with_u64("b", raw(b.id()));
  (void)obs::take_loss_reason();  // start the attempt with a clean channel

  const std::span<CodeId> shared = shared_.intersect(a.usable_codes(), b.usable_codes());
  result.shared_codes = static_cast<std::uint32_t>(shared.size());
  if (shared.empty()) {
    JRSND_COUNT("dndp.no_shared_code");
    JRSND_COUNT("dndp.failed");
    root.set_ok(false);
    root.set_loss(obs::LossStage::NoSharedCode);
    return result;
  }

  // Session nonces are drawn once; all sub-sessions establish the same
  // session code (paper's redundancy design).
  PairState& pair = pair_;
  a.make_nonce_into(params_.l_n, pair.nonce_a);
  b.make_nonce_into(params_.l_n, pair.nonce_b);
  HelloMessage{a.id()}.encode_into(pair.hello, wire_);
  ConfirmMessage{b.id()}.encode_into(pair.confirm, wire_);
  pair.auth1_key.reset();
  pair.auth2_key.reset();
  pair.winner.reset();

  // The naive (non-redundant) variant lets B pick one random code among the
  // HELLOs it received; iterating a random permutation and stopping at the
  // first delivered HELLO selects uniformly among them.
  if (!redundancy_) b.rng().shuffle(shared);

  // The retry discipline measures timeouts on the initiator's local clock;
  // with no fault layer attached every clock runs at the nominal rate.
  const double clock_rate = clock_ ? clock_->rate(a.id()) : 1.0;

  std::uint32_t attempted = 0;
  obs::LossStage last_loss = obs::LossStage::None;
  Duration elapsed_total{0.0};
  for (const CodeId code : shared) {
    JRSND_COUNT("dndp.subsessions.started");
    ++attempted;
    phy_.begin_subsession(a.id(), b.id(), code);
    HandshakeStateMachine hs(params_.retry, retry_rng_, clock_rate);
    subsession_bits_ = 0;

    obs::Span sub("dndp.subsession");
    sub.with_u64("code", raw(code));
    bool sub_ok = false;

    // 1. A -> *: {HELLO, ID_A}_{C_i}. (The broadcast also uses A's other
    // codes; only shared ones can reach B, so we model those.)
    const TxCode tx{code, &a.code_pattern(code)};
    std::optional<HelloMessage> hello_decoded;
    if (transmit_with_retry(hs, a.id(), b.id(), a.id(), b.id(), tx, TxClass::Hello,
                            pair.hello)) {
      hello_decoded = HelloMessage::decode(rx_, wire_);
      if (!hello_decoded) obs::set_loss_reason(obs::LossStage::Corrupt);
    }
    if (hello_decoded) {
      ++result.hellos_delivered;
      if (run_subsession(a, b, tx, hs, result)) {
        ++result.subsessions_completed;
        sub_ok = true;
        if (!result.winning_code) result.winning_code = code;
      }
    }
    sub.set_ok(sub_ok);
    if (!sub_ok) {
      // The stage that killed this sub-session; the last failed sub-session
      // determines the attempt-level attribution.
      const obs::LossStage sub_loss = obs::take_loss_reason();
      last_loss = sub_loss != obs::LossStage::None ? sub_loss : obs::LossStage::DecodeFail;
      sub.set_loss(last_loss);
    }
    // The sub-session's duration: its timeouts and backoffs plus the air
    // time of every frame it sent, ECC expansion included.
    const Duration sub_dur =
        hs.elapsed() + Duration((1.0 + params_.mu) * static_cast<double>(subsession_bits_) *
                                static_cast<double>(params_.N) / params_.R);
    sub.set_dur(sub_dur.seconds());
    elapsed_total += sub_dur;
    result.retransmissions += hs.retransmissions();
    result.timeouts += hs.timeouts();
    // The naive variant commits to the first delivered HELLO's code,
    // succeed or fail — exactly what the "intelligent attack" exploits.
    if (hello_decoded && !redundancy_) break;
  }

  if (pair.winner) {
    result.discovered = true;
    a.add_logical_neighbor(b.id(), *pair.winner);
    b.add_logical_neighbor(a.id(), std::move(*pair.winner));
  }

  root.set_ok(result.discovered);
  root.set_dur(elapsed_total.seconds());
  if (!result.discovered) {
    root.set_loss(last_loss != obs::LossStage::None ? last_loss : obs::LossStage::DecodeFail);
  }

  if (result.discovered) {
    JRSND_COUNT("dndp.discovered");
  } else {
    JRSND_COUNT("dndp.failed");
  }
  JRSND_COUNT_N("dndp.hellos_delivered", result.hellos_delivered);
  JRSND_COUNT_N("dndp.subsessions.completed", result.subsessions_completed);
  JRSND_COUNT_N("dndp.subsessions.failed", attempted - result.subsessions_completed);
  if (result.mac_failure) JRSND_COUNT("dndp.mac_failures");
  if (obs::tracing_enabled()) {
    auto event =
        obs::TraceEvent("dndp.pair",
                        result.discovered ? obs::Severity::Info : obs::Severity::Warn)
            .with("a", std::uint64_t{raw(a.id())})
            .with("b", std::uint64_t{raw(b.id())})
            .with("shared", std::uint64_t{result.shared_codes})
            .with("hellos", std::uint64_t{result.hellos_delivered})
            .with("subsessions", std::uint64_t{result.subsessions_completed})
            .with("discovered", result.discovered)
            .with("mac_failure", result.mac_failure);
    // Only present when the retry discipline actually fired, so traces from
    // the default one-shot configuration are byte-identical to before.
    if (result.retransmissions > 0 || result.timeouts > 0) {
      event.with("retx", std::uint64_t{result.retransmissions})
          .with("timeouts", std::uint64_t{result.timeouts});
    }
    obs::event_log().emit(std::move(event));
  }
  return result;
}

}  // namespace jrsnd::core
