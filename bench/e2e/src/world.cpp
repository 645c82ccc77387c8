#include "world.hpp"

#include "crypto/session_code.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/field.hpp"
#include "sim/mobility.hpp"

namespace e2e {

using namespace jrsnd;

namespace {

std::unique_ptr<adversary::Jammer> make_jammer(core::JammerKind kind,
                                               const adversary::CompromiseModel& compromise,
                                               const core::Params& p) {
  const adversary::JammerParams jp{p.z, p.mu};
  switch (kind) {
    case core::JammerKind::None: return std::make_unique<adversary::NullJammer>();
    case core::JammerKind::Random:
      return std::make_unique<adversary::RandomJammer>(compromise, jp);
    case core::JammerKind::Reactive:
      return std::make_unique<adversary::ReactiveJammer>(compromise, jp);
    case core::JammerKind::Intelligent:
      return std::make_unique<adversary::IntelligentJammer>(compromise);
  }
  return std::make_unique<adversary::NullJammer>();
}

/// The D-NDP wire geometry the engine derives from its Params.
core::WireConfig wire_of(const core::Params& p) {
  core::WireConfig wire;
  wire.l_t = p.l_t;
  wire.l_id = p.l_id;
  wire.l_n = p.l_n;
  wire.l_mac = p.l_mac;
  wire.l_nu = p.l_nu;
  wire.l_sig = p.l_sig;
  return wire;
}

/// Restores the metrics switch on scope exit (the replays run with it off).
class MetricsOff {
 public:
  MetricsOff() : was_(obs::metrics_enabled()) { obs::set_metrics_enabled(false); }
  ~MetricsOff() { obs::set_metrics_enabled(was_); }
  MetricsOff(const MetricsOff&) = delete;
  MetricsOff& operator=(const MetricsOff&) = delete;

 private:
  bool was_;
};

}  // namespace

World::World(const core::Params& p, core::JammerKind jammer_kind, std::uint64_t seed,
             SpanLedger* ledger)
    : params(p) {
  Rng rng(seed);
  {
    ScopedSpan span(ledger, "world.authority");
    authority.emplace(params.predist(), rng.split());
  }
  {
    ScopedSpan span(ledger, "world.placement+topology");
    const sim::Field field(params.field_width, params.field_height);
    Rng placement_rng = rng.split();
    const sim::UniformPlacement placement(field, params.n, placement_rng);
    topology.emplace(field, placement.snapshot(kSimStart), params.tx_range);
  }
  {
    ScopedSpan span(ledger, "world.adversary");
    Rng adversary_rng = rng.split();
    compromise.emplace(authority->assignment(), params.q, adversary_rng);
    jammer = make_jammer(jammer_kind, *compromise, params);
  }
  ScopedSpan span(ledger, "world.nodes");
  ibc.emplace(rng.next());
  after_ibc_ = rng;
  {
    ScopedSpan issue(ledger, "crypto.issue");
    keys.reserve(params.n);
    for (std::uint32_t i = 0; i < params.n; ++i) keys.push_back(ibc->issue(node_id(i)));
  }
  root = reset_nodes();
}

Rng World::reset_nodes() {
  Rng rng = after_ibc_;
  nodes.clear();
  nodes.reserve(params.n);
  for (std::uint32_t i = 0; i < params.n; ++i) {
    const NodeId id = node_id(i);
    nodes.emplace_back(id, keys[i], authority->assignment().codes_of(id), *authority,
                       params.gamma, rng.split());
  }
  return rng;
}

void LedgerPhy::begin_subsession(NodeId a, NodeId b, CodeId code) {
  ++subsessions;
  inner_.begin_subsession(a, b, code);
}

std::optional<BitVector> LedgerPhy::transmit(NodeId from, NodeId to, core::TxCode code,
                                             core::TxClass cls, const BitVector& payload) {
  const std::uint64_t jams_before = chip_ != nullptr ? chip_->chip_jams() : 0;
  std::optional<BitVector> rx;
  {
    ScopedSpan span(&ledger_, "phy.transmit");
    rx = inner_.transmit(from, to, code, cls, payload);
  }
  ++frames;
  if (rx) ++delivered;
  if (chip_ != nullptr && cls == core::TxClass::Hello && chip_->chip_jams() != jams_before) {
    ++struck_hellos;
    if (rx && *rx != payload) ++miscorrected_hellos;
  }
  if (cls == core::TxClass::Confirm && rx) last_confirm_ = *rx;
  if (cls == core::TxClass::Auth) {
    auth_.push_back(AuthFrame{from, to, code.id, payload, rx, last_confirm_});
  }
  return rx;
}

std::optional<BitVector> TimedPhy::transmit(NodeId from, NodeId to, core::TxCode code,
                                            core::TxClass cls, const BitVector& payload) {
  const std::int64_t start = now_ns();
  std::optional<BitVector> rx = inner_.transmit(from, to, code, cls, payload);
  frame_ns_.push_back(static_cast<double>(now_ns() - start));
  return rx;
}

namespace {

/// Re-executes the crypto of one pair's handshake on the frames the engine
/// sent (see traced_dndp). Returns the session code of the first completed
/// sub-session, which is the one the engine stores.
std::optional<BitVector> replay_crypto(World& world, const std::vector<LedgerPhy::AuthFrame>& frames,
                                       NodeId initiator, core::HandshakeVerifier& verifier,
                                       const core::WireConfig& wire, std::uint64_t trace,
                                       SpanLedger& ledger, DndpTally& tally, Checks& checks) {
  std::optional<BitVector> first_code;
  crypto::SymmetricKey key{};
  BitVector nonce_a;
  for (const LedgerPhy::AuthFrame& f : frames) {
    const bool auth1 = f.from == initiator;
    const std::optional<core::AuthMessage> sent = core::AuthMessage::decode(f.sent, wire);
    if (!checks.expect(sent.has_value(), "engine sent an undecodable AUTH frame")) continue;
    if (auth1) {
      // The engine keys AUTH1 with the id it decoded from the CONFIRM; the
      // responder's reply reuses this key (the verifier hands it back).
      const std::optional<core::ConfirmMessage> confirm =
          core::ConfirmMessage::decode(f.last_confirm, wire);
      if (!checks.expect(confirm.has_value(), "AUTH sent without a decodable CONFIRM")) continue;
      ScopedSpan span(&ledger, "crypto.shared_key", trace, true);
      key = world.nodes[raw(f.from)].key().shared_key(confirm->sender);
      ++tally.shared_key_calls;
    }
    BitVector rebuilt;
    {
      ScopedSpan span(&ledger, "crypto.auth_make", trace, true);
      rebuilt = core::AuthMessage::make(sent->sender, sent->nonce, key, wire).encode(wire);
      ++tally.make_calls;
    }
    checks.expect(rebuilt == f.sent, "replayed AuthMessage::make differs from the engine's frame");
    if (!f.received) continue;
    core::AuthVerdict verdict;
    {
      ScopedSpan span(&ledger, "crypto.verify_auth", trace, true);
      verdict = verifier.verify_auth(*f.received, f.code, f.code, world.nodes[raw(f.to)].key());
      ++tally.verify_calls;
    }
    if (!verdict.accepted()) continue;
    if (auth1) {
      nonce_a = verdict.nonce;
      continue;
    }
    ScopedSpan span(&ledger, "crypto.session_code", trace, true);
    BitVector code = crypto::derive_session_code(key, nonce_a, verdict.nonce, world.params.N);
    ++tally.session_code_calls;
    if (!first_code) first_code = std::move(code);
  }
  return first_code;
}

}  // namespace

DndpTally traced_dndp(World& world, LedgerPhy& phy, core::DndpEngine& engine, Rng& order_rng,
                      sim::LogicalGraph* logical, SpanLedger& ledger, Checks& checks) {
  DndpTally tally;
  const core::WireConfig wire = wire_of(world.params);
  core::HandshakeVerifier verifier(wire);  // long-lived, like the engine's peer cache
  for (const auto& [a, b] : world.topology->pairs()) {
    const bool a_first = order_rng.bernoulli(0.5);
    core::NodeState& initiator = world.nodes[raw(a_first ? a : b)];
    core::NodeState& responder = world.nodes[raw(a_first ? b : a)];
    const std::uint64_t trace = ++tally.pairs;
    phy.auth_frames().clear();
    core::DndpResult result;
    {
      ScopedSpan span(&ledger, "dndp.pair", trace);
      result = engine.run(initiator, responder);
    }
    // The engine's internal calls, re-executed. The block is one replayed
    // root span, so neither the replays nor their checks count toward the
    // run wall.
    {
      const MetricsOff off;
      ScopedSpan replay(&ledger, "replay", trace, true);
      {
        ScopedSpan span(&ledger, "predist.usable_codes", trace, true);
        const std::vector<CodeId> ua = initiator.usable_codes();
        const std::vector<CodeId> ub = responder.usable_codes();
        tally.usable_code_calls += 2;
        checks.expect(!ua.empty() && !ub.empty(), "a node has no usable codes");
      }
      const std::optional<BitVector> replayed_code = replay_crypto(
          world, phy.auth_frames(), initiator.id(), verifier, wire, trace, ledger, tally, checks);
      if (result.discovered) {
        const core::LogicalNeighbor* at_a = initiator.neighbor(responder.id());
        const core::LogicalNeighbor* at_b = responder.neighbor(initiator.id());
        checks.expect(at_a != nullptr && at_b != nullptr &&
                          at_a->session_code == at_b->session_code && replayed_code &&
                          *replayed_code == at_a->session_code,
                      "discovered pair: session codes differ between ends or from the replay");
      }
    }
    if (result.discovered) {
      ++tally.discovered;
      if (logical != nullptr) logical->add_edge(a, b);
    } else {
      tally.failed.emplace_back(a, b);
    }
  }
  return tally;
}

}  // namespace e2e
