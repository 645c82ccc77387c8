#include "core/mndp.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "crypto/session_code.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics_registry.hpp"

namespace jrsnd::core {

MndpEngine::MndpEngine(const Params& params, PhyModel& phy, const sim::Topology& topology,
                       std::shared_ptr<const crypto::PairingOracle> oracle, bool gps_filter,
                       std::uint64_t retry_seed)
    : params_(params),
      wire_(params.wire()),
      phy_(phy),
      topology_(topology),
      oracle_(std::move(oracle)),
      gps_filter_(gps_filter),
      retry_rng_(retry_seed ^ 0xA24BAED4963EE407ULL),
      req_body_(wire_),
      resp_body_(wire_),
      pattern_(BitVector(params.N)) {}  // a placeholder until the first unicast

std::optional<BitVector> MndpEngine::transmit_with_retry(NodeId from, NodeId to,
                                                         const TxCode& code, TxClass cls,
                                                         const BitVector& payload,
                                                         MndpStats& stats) {
  auto rx = phy_.transmit(from, to, code, cls, payload);
  if (rx || !params_.retry.enabled()) return rx;
  RetryState retry(params_.retry, retry_rng_);
  retry.on_send();  // the first, already-failed attempt
  while (true) {
    ++stats.timeouts;
    JRSND_COUNT("mndp.timeout.expired");
    const auto backoff = retry.on_timeout();
    if (!backoff) {
      JRSND_COUNT("mndp.timeout.exhausted");
      return std::nullopt;
    }
    ++stats.retransmissions;
    JRSND_COUNT("mndp.retx.attempts");
    retry.on_send();
    rx = phy_.transmit(from, to, code, cls, payload);
    if (rx) {
      JRSND_COUNT("mndp.retx.recovered");
      return rx;
    }
  }
}

std::optional<BitVector> MndpEngine::session_unicast(NodeState& from, NodeState& to,
                                                     const BitVector& payload, TxClass cls,
                                                     MndpStats& stats) {
  const LogicalNeighbor* link = from.neighbor(to.id());
  if (link == nullptr) return std::nullopt;
  pattern_.assign(link->session_code);
  return transmit_with_retry(from.id(), to.id(), TxCode{kInvalidCode, &pattern_}, cls, payload,
                             stats);
}

const crypto::SignerKey& MndpEngine::signer(NodeId id) {
  std::optional<crypto::SignerKey>& slot =
      raw(id) < signers_.size() ? signers_[raw(id)] : stray_signer_;
  if (!slot || slot->id != id) slot.emplace(oracle_->signer_key(id));
  return *slot;
}

bool MndpEngine::verify_chain(const SignedBody& body, NodeId leader,
                              const crypto::IbcSignature& leader_sig, const HopList& hops,
                              MndpStats& stats) {
  ++stats.signature_verifications;
  if (!body.verify(signer(leader), 0, leader_sig)) return false;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    ++stats.signature_verifications;
    if (!body.verify(signer(hops[i].id), i + 1, hops[i].signature)) return false;
  }
  return true;
}

void MndpEngine::sign_hop(NodeState& node, SignedBody& body, HopList& hops, MndpStats& stats) {
  const std::vector<NodeId>& neighbors = node.logical_neighbors();
  body.append_hop(node.id(), neighbors);
  HopRecord& hop = hops.append();
  hop.id = node.id();
  hop.neighbors = neighbors;
  hop.signature = body.sign(node.key(), signer(node.key().id()), body.prefixes() - 1);
  ++stats.signatures_created;
}

bool MndpEngine::path_is_legitimate(const MndpRequest& req, NodeId holder,
                                    NodeId arrived_from) const {
  // The claimed neighbor lists must chain: hop_0 in L_source, hop_i in
  // L_{hop_{i-1}}, and the holder must appear in the last list. The message
  // must also have arrived from the last node on the claimed path.
  const std::vector<NodeId>* last_list = &req.source_neighbors;
  NodeId last_id = req.source;
  for (const HopRecord& hop : req.hops) {
    if (std::find(last_list->begin(), last_list->end(), hop.id) == last_list->end()) {
      return false;
    }
    last_list = &hop.neighbors;
    last_id = hop.id;
  }
  if (arrived_from != last_id) return false;
  return std::find(last_list->begin(), last_list->end(), holder) != last_list->end();
}

MndpStats MndpEngine::initiate(NodeState& initiator, std::span<NodeState> nodes) {
  MndpStats stats;
  if (initiator.logical_neighbors().empty()) return stats;
  if (signers_.size() < nodes.size()) signers_.resize(nodes.size());
  if (seen_.size() < nodes.size()) seen_.resize(nodes.size());

  MndpRequest& req = req_;
  req.source = initiator.id();
  req.source_neighbors = initiator.logical_neighbors();
  req.nonce = initiator.make_nonce(params_.l_n);
  req.nu = params_.nu;
  req.hops.clear();
  req_body_.assign(req);
  req.source_signature = req_body_.sign(initiator.key(), signer(initiator.key().id()), 0);
  ++stats.signatures_created;

  seen_[raw(initiator.id())].push_back(req.key());

  queue_.clear();
  req.encode_into(req_tx_, wire_);
  for (const NodeId peer : req.source_neighbors) {
    ++stats.requests_sent;
    NodeState& target = nodes[raw(peer)];
    auto rx = session_unicast(initiator, target, req_tx_, TxClass::SessionUnicast, stats);
    if (rx) queue_.push_back(PendingRequest{peer, initiator.id(), std::move(*rx)});
  }

  // Copies are appended while the FIFO is walked, so index it afresh.
  for (std::size_t at = 0; at < queue_.size(); ++at) process_request(at, nodes, stats);

  JRSND_COUNT("mndp.initiations");
  JRSND_COUNT_N("mndp.requests_sent", stats.requests_sent);
  JRSND_COUNT_N("mndp.responses_sent", stats.responses_sent);
  JRSND_COUNT_N("mndp.sig_verifications", stats.signature_verifications);
  JRSND_COUNT_N("mndp.sigs_created", stats.signatures_created);
  JRSND_COUNT_N("mndp.requests_dropped", stats.requests_dropped);
  JRSND_COUNT_N("mndp.discoveries", stats.discoveries);
  JRSND_COUNT_N("mndp.false_positive_responses", stats.false_positive_responses);
  if (obs::tracing_enabled()) {
    obs::event_log().emit(
        obs::TraceEvent("mndp.initiate")
            .with("source", std::uint64_t{raw(initiator.id())})
            .with("requests", stats.requests_sent)
            .with("responses", stats.responses_sent)
            .with("verifications", stats.signature_verifications)
            .with("dropped", stats.requests_dropped)
            .with("discoveries", stats.discoveries)
            .with("max_hops", std::uint64_t{stats.max_hops_seen}));
  }
  return stats;
}

void MndpEngine::process_request(std::size_t at, std::span<NodeState> nodes, MndpStats& stats) {
  // Take the copy's bits: forwarding below may grow (and move) queue_.
  const PendingRequest item = std::move(queue_[at]);
  NodeState& holder = nodes[raw(item.holder)];

  // Dedup on the wire key before decoding; the key is remembered only once
  // the copy decodes, so a corrupted copy is dropped exactly as a failed
  // decode at arrival would drop it.
  const std::optional<std::uint64_t> key = MndpRequest::peek_key(item.bits, wire_);
  if (!key) return;
  std::vector<std::uint64_t>& seen = seen_[raw(holder.id())];
  if (std::find(seen.begin(), seen.end(), *key) != seen.end()) return;  // duplicate copy
  MndpRequest& req = req_;
  if (!MndpRequest::decode_into(item.bits, wire_, req)) return;
  seen.push_back(*key);

  const std::uint32_t traversed = req.hops_traversed();
  stats.max_hops_seen = std::max(stats.max_hops_seen, traversed);

  // Every signature in the request is verified before anything else.
  SignedBody& body = req_body_;
  body.assign(req);
  if (!verify_chain(body, req.source, req.source_signature, req.hops, stats)) {
    ++stats.requests_dropped;
    return;
  }
  // Path legitimacy: the claimed lists chain from the source to us, and the
  // delivering node really is our logical neighbor (C in L_A AND L_B).
  if (!path_is_legitimate(req, holder.id(), item.arrived_from) ||
      !holder.knows(item.arrived_from)) {
    ++stats.requests_dropped;
    return;
  }

  // Respond when the source is new to us (we act as the paper's node B).
  if (holder.id() != req.source && !holder.knows(req.source)) {
    const bool physically_adjacent = topology_.are_neighbors(holder.id(), req.source);
    if (!gps_filter_ || physically_adjacent) {
      if (!physically_adjacent) ++stats.false_positive_responses;
      respond(holder, req, item.arrived_from, nodes, stats);
    }
  }

  // Forward while the hop budget lasts.
  if (traversed >= req.nu) return;

  // Exclusion: nodes already covered by any neighbor list in the request as
  // it arrived (the first `arrived_hops` records; ours is appended below).
  const std::size_t arrived_hops = req.hops.size();
  const auto covered = [&req, &holder, arrived_hops](NodeId id) {
    const auto listed = [id](const std::vector<NodeId>& list) {
      return std::find(list.begin(), list.end(), id) != list.end();
    };
    if (id == req.source || id == holder.id() || listed(req.source_neighbors)) return true;
    for (std::size_t k = 0; k < arrived_hops; ++k) {
      if (id == req.hops[k].id || listed(req.hops[k].neighbors)) return true;
    }
    return false;
  };

  // Extend the decoded copy in place: nothing reads it after.
  sign_hop(holder, body, req.hops, stats);
  req.encode_into(req_tx_, wire_);
  for (const NodeId next : holder.logical_neighbors()) {
    if (covered(next)) continue;
    ++stats.requests_sent;
    NodeState& target = nodes[raw(next)];
    auto rx = session_unicast(holder, target, req_tx_, TxClass::SessionUnicast, stats);
    if (rx) queue_.push_back(PendingRequest{next, holder.id(), std::move(*rx)});
  }
}

void MndpEngine::respond(NodeState& responder, const MndpRequest& req, NodeId reverse_next,
                         std::span<NodeState> nodes, MndpStats& stats) {
  assert(!req.hops.empty());  // direct logical neighbors never respond

  MndpResponse& resp = resp_;
  resp.source = req.source;
  resp.via = reverse_next;
  resp.responder = responder.id();
  resp.responder_neighbors = responder.logical_neighbors();
  resp.nonce = responder.make_nonce(params_.l_n);
  resp.nu = req.nu;
  resp.hops.clear();
  resp_body_.assign(resp);
  resp.responder_signature =
      resp_body_.sign(responder.key(), signer(responder.key().id()), 0);
  ++stats.signatures_created;
  ++stats.responses_sent;

  // B derives K_BA and C_BA = h_{K_BA}(n_B ^ n_A) and will broadcast
  // {HELLO, ID_B}_{C_BA} while the response travels (paper: for tau_h).
  const crypto::SymmetricKey key_ba = responder.key().shared_key(req.source);
  const BitVector session_ba =
      crypto::derive_session_code(key_ba, resp.nonce, req.nonce, params_.N);

  // Walk the reverse path: responder -> hops[k] -> ... -> hops[0] -> source.
  // Each leg re-encodes resp_ and decodes the received copy back into it.
  NodeState* carrier = &responder;
  for (std::size_t leg = 0; leg <= req.hops.size(); ++leg) {
    const NodeId next_id =
        leg < req.hops.size() ? req.hops[req.hops.size() - 1 - leg].id : req.source;
    NodeState& next = nodes[raw(next_id)];
    resp.encode_into(resp_tx_, wire_);
    const auto rx = session_unicast(*carrier, next, resp_tx_, TxClass::SessionUnicast, stats);
    if (!rx) return;  // reverse link lost (e.g. mobility); response dies
    if (!MndpResponse::decode_into(*rx, wire_, resp)) return;

    resp_body_.assign(resp);
    if (!verify_chain(resp_body_, resp.responder, resp.responder_signature, resp.hops, stats)) {
      return;
    }
    if (next.id() == req.source) break;

    // Intermediate node appends its own record and signature.
    sign_hop(next, resp_body_, resp.hops, stats);
    carrier = &next;
  }

  // The source checks the path end: its relay must be a claimed neighbor of
  // the responder (the paper's "whether C in L_B"), then derives the same
  // session code and listens on it.
  NodeState& source = nodes[raw(req.source)];
  if (std::find(resp.responder_neighbors.begin(), resp.responder_neighbors.end(), resp.via) ==
      resp.responder_neighbors.end()) {
    ++stats.requests_dropped;
    return;
  }
  const crypto::SymmetricKey key_ab = source.key().shared_key(resp.responder);
  const BitVector session_ab =
      crypto::derive_session_code(key_ab, req.nonce, resp.nonce, params_.N);
  assert(session_ab == session_ba);

  // Completion handshake over the fresh session code: B's HELLO physically
  // reaches A only if they really are physical neighbors.
  pattern_.assign(session_ba);
  const TxCode session_tx{kInvalidCode, &pattern_};

  const HelloMessage hello{responder.id()};
  const auto hello_rx = transmit_with_retry(responder.id(), source.id(), session_tx,
                                            TxClass::SessionHello, hello.encode(wire_), stats);
  if (!hello_rx || !HelloMessage::decode(*hello_rx, wire_)) return;

  // A accepts B and confirms; on receipt B accepts A.
  source.add_logical_neighbor(responder.id(), LogicalNeighbor{key_ab, session_ab, true});
  const ConfirmMessage confirm{source.id()};
  const auto confirm_rx = transmit_with_retry(source.id(), responder.id(), session_tx,
                                              TxClass::SessionConfirm, confirm.encode(wire_), stats);
  if (confirm_rx && ConfirmMessage::decode(*confirm_rx, wire_)) {
    responder.add_logical_neighbor(source.id(), LogicalNeighbor{key_ba, session_ba, true});
    ++stats.discoveries;
  }
}

void MndpEngine::begin_round() {
  for (std::vector<std::uint64_t>& seen : seen_) seen.clear();
}

MndpStats MndpEngine::run_round(std::span<NodeState> nodes, Rng& rng) {
  begin_round();
  std::vector<std::uint32_t> order(nodes.size());
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(std::span<std::uint32_t>(order));

  MndpStats total;
  for (const std::uint32_t idx : order) {
    const MndpStats stats = initiate(nodes[idx], nodes);
    total.requests_sent += stats.requests_sent;
    total.responses_sent += stats.responses_sent;
    total.signature_verifications += stats.signature_verifications;
    total.signatures_created += stats.signatures_created;
    total.requests_dropped += stats.requests_dropped;
    total.discoveries += stats.discoveries;
    total.false_positive_responses += stats.false_positive_responses;
    total.max_hops_seen = std::max(total.max_hops_seen, stats.max_hops_seen);
    total.retransmissions += stats.retransmissions;
    total.timeouts += stats.timeouts;
  }
  return total;
}

}  // namespace jrsnd::core
