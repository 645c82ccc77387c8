// M-NDP: the Multi-hop Neighbor Discovery Protocol (paper §V-C).
//
// Two physical neighbors A and B that failed D-NDP (no common code, or all
// common codes compromised and jammed) discover each other through a
// jamming-resilient path of already-discovered logical links:
//
//   * A unicasts a signed request {ID_A, L_A, n_A, nu, SIG_A} to every
//     logical neighbor over the pairwise session codes.
//   * Each recipient verifies every signature in the request, checks that
//     the claimed neighbor lists form a legitimate path back to the source,
//     responds if the source is unknown to it (deriving the pairwise key
//     and session code C_BA = h_{K_BA}(n_B ^ n_A) and broadcasting
//     {HELLO, ID_B}_{C_BA}), and forwards an extended request to the nodes
//     not already covered by the lists it carries while fewer than nu hops
//     have been traversed.
//   * The signed response retraces the reverse path; the source verifies
//     it, derives the same session code, and listens. Discovery completes
//     only if B's session-code HELLO physically reaches A (so non-physical
//     "false positives" cost a response + HELLO broadcast but never corrupt
//     neighbor tables); the optional GPS filter suppresses even that cost.
//
// The engine executes the real signature chain (every verification counted,
// for both the DoS analysis and the latency model's 2nu(nu+1) t_ver term).
// None of that work is skipped, but none is repeated either:
//
//   * one signature schedule per signer per engine (signer_key: sign_key(ID)
//     and its HMAC midstates), built lazily on the signer's first sign or
//     verify and shared by both, so a sign or verify costs the signed
//     bytes' compressions plus one;
//   * one SignedBody per message copy: the signed fields are encoded once
//     and every signature in the chain hashes a bit prefix of those bytes;
//     a forwarder appends its block to the body it just verified and signs
//     the new prefix;
//   * a request copy is queued as the bits it arrived as, received straight
//     into a FIFO slot that keeps its storage across initiations; its
//     (source, nonce) key is read from the wire header, and only a copy new
//     to its holder is decoded (most copies of a flood are duplicates);
//   * message handling runs in engine-owned scratch: one decoded message,
//     one SignedBody and one transmit buffer for requests and another set
//     for responses (respond() runs while the request's set is live), plus
//     one receive buffer, one spread-code pattern and the request FIFO, so
//     a warm engine's codecs, bodies, session unicasts and deliveries do
//     not allocate;
//   * neighbor lists are read by reference (NodeState keeps L sorted).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/jrsnd_node.hpp"
#include "core/messages.hpp"
#include "core/params.hpp"
#include "core/phy_model.hpp"
#include "sim/topology.hpp"

namespace jrsnd::core {

struct MndpStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t signature_verifications = 0;
  std::uint64_t signatures_created = 0;
  std::uint64_t requests_dropped = 0;      ///< failed verification / illegit path
  std::uint64_t discoveries = 0;           ///< new logical pairs completed
  std::uint64_t false_positive_responses = 0;  ///< responses for non-physical sources
  std::uint32_t max_hops_seen = 0;
  std::uint64_t retransmissions = 0;  ///< relay/completion retries spent
  std::uint64_t timeouts = 0;         ///< attempt timeouts that expired
};

class MndpEngine {
 public:
  /// `nodes` must be indexable by raw NodeId. `topology` supplies physical
  /// adjacency (the final session-code HELLO only crosses real links) and
  /// positions for the GPS filter.
  /// `retry_seed` seeds the backoff-jitter Rng for the drop-tolerant retry
  /// budget (active only when `params.retry` is enabled; the default policy
  /// keeps the engine bit-identical to the unhardened one).
  MndpEngine(const Params& params, PhyModel& phy, const sim::Topology& topology,
             std::shared_ptr<const crypto::PairingOracle> oracle, bool gps_filter = false,
             std::uint64_t retry_seed = 0);

  /// Runs one full initiation from `initiator` to quiescence (the request
  /// flood, all responses, and all completion handshakes). Updates logical
  /// neighbor tables of every participating node.
  MndpStats initiate(NodeState& initiator, std::span<NodeState> nodes);

  /// Runs one initiation from every node in random order — the paper's
  /// "each node periodically initiates M-NDP"; one such sweep is one M-NDP
  /// round. Returns aggregate stats.
  MndpStats run_round(std::span<NodeState> nodes, Rng& rng);

  /// Forgets every request key the nodes have seen: the start of a round
  /// (run_round calls it). A caller that drives initiate() itself decides
  /// where its rounds begin.
  void begin_round();

 private:
  struct PendingRequest {
    NodeId holder;  ///< node about to process this request copy
    NodeId arrived_from;
    BitVector bits;  ///< as received; decoded only if new to `holder`
  };

  /// `id`'s signature schedule, built on first use and kept for the
  /// engine's lifetime (ids outside the node table share one slot, rebuilt
  /// whenever its tag names another id). Signing looks up the id the key
  /// was issued to, NodeState::key().id(), never the id a node claims.
  [[nodiscard]] const crypto::SignerKey& signer(NodeId id);

  /// Verifies every signature of one message — the leader's over prefix 0,
  /// then hops[k]'s over prefix k + 1 of `body` — stopping at the first
  /// failure; bumps stats once per signature checked.
  [[nodiscard]] bool verify_chain(const SignedBody& body, NodeId leader,
                                  const crypto::IbcSignature& leader_sig, const HopList& hops,
                                  MndpStats& stats);

  /// Appends `node`'s hop record to `hops` and `body` and signs the new
  /// prefix.
  void sign_hop(NodeState& node, SignedBody& body, HopList& hops, MndpStats& stats);

  /// The paper's path-legitimacy check: consecutive (claimed) neighbor
  /// lists must chain from the source to `holder` via `arrived_from`.
  [[nodiscard]] bool path_is_legitimate(const MndpRequest& req, NodeId holder,
                                        NodeId arrived_from) const;

  /// Processes queue_[at]: dedup on the wire key, decode, verify, respond,
  /// forward (appending the forwarded copies to queue_).
  void process_request(std::size_t at, std::span<NodeState> nodes, MndpStats& stats);

  /// B's response: built, signed, and walked back along the reverse path
  /// with per-hop verification; then the session-code HELLO/CONFIRM
  /// completion handshake.
  void respond(NodeState& responder, const MndpRequest& req, NodeId reverse_next,
               std::span<NodeState> nodes, MndpStats& stats);

  /// Unicast over an established session link; on delivery `out` holds
  /// the received bits. Applies the drop-tolerant retry budget when
  /// `params.retry` is enabled. The link's session code is spread through
  /// pattern_.
  [[nodiscard]] bool session_unicast(NodeState& from, NodeState& to, const BitVector& payload,
                                     TxClass cls, BitVector& out, MndpStats& stats);

  /// Unicasts req_tx_ from `from` to `to`; a delivered copy lands in the
  /// next queue_ slot, in that slot's storage, and is queued for `to`.
  void send_request(NodeState& from, NodeState& to, MndpStats& stats);

  /// One transmission into `out` with the retry budget. Session-class
  /// transmissions draw a fresh jamming fate per message, so a
  /// retransmission needs no re-arm. With retries disabled this is exactly
  /// one `phy_.transmit_into`.
  [[nodiscard]] bool transmit_with_retry(NodeId from, NodeId to, const TxCode& code,
                                         TxClass cls, const BitVector& payload, BitVector& out,
                                         MndpStats& stats);

  const Params& params_;
  WireConfig wire_;
  PhyModel& phy_;
  const sim::Topology& topology_;
  std::shared_ptr<const crypto::PairingOracle> oracle_;
  bool gps_filter_;
  Rng retry_rng_;

  /// Dedup: request keys (source, nonce) each node has already processed,
  /// indexed by raw node id (a node sees tens to hundreds per round, so a
  /// linear scan beats a hash set).
  std::vector<std::vector<std::uint64_t>> seen_;

  /// signer(): one lazily built schedule per node id, plus the stray slot.
  std::vector<std::optional<crypto::SignerKey>> signers_;
  std::optional<crypto::SignerKey> stray_signer_;

  /// Scratch reused across copies and initiations (see the header comment).
  /// The request set is live from a copy's decode until its forwards are
  /// sent, across respond(), which uses only the response set.
  MndpRequest req_;
  SignedBody req_body_;
  BitVector req_tx_;
  MndpResponse resp_;
  SignedBody resp_body_;
  BitVector resp_tx_;
  dsss::SpreadCode pattern_;  ///< chips of the session-code transmission in flight
  BitVector rx_;  ///< a delivered response or completion frame, consumed before the next send
  /// This initiation's FIFO, in arrival order: its first queued_ slots. Slots
  /// past it keep their storage for the next copies to land in.
  std::vector<PendingRequest> queue_;
  std::size_t queued_ = 0;
};

}  // namespace jrsnd::core
