// Chip-accurate PHY: the full DSSS + ECC pipeline per transmission.
//
// Every transmit() actually
//   1. Reed-Solomon-expands the payload (rate 1/(1+mu), interleaved),
//   2. spreads it with the given code into a chip sequence,
//   3. places it at a random chip offset in a channel window,
//   4. lets the jammer (if it elects to, per its message-level policy)
//      superpose synchronized jamming chips covering more than the ECC
//      tolerance with the compromised code,
//   5. runs the receiver: sliding-window synchronization against its
//      candidate codes (its whole code set for HELLOs, the monitored code
//      otherwise), per-bit correlation-threshold de-spreading with erasure
//      marking, and RS errata decoding.
//
// It exists to validate AbstractPhy: integration tests run the same D-NDP
// handshake over both and check that outcomes agree (jam -> fail,
// no jam -> success). It is O(window * codes * N) per message.
//
// Per-transmit precomputation is cached: the receiver's codebook arrives as
// a PreparedCodebook (ShiftTables built once, reused across transmissions
// and every recover-and-rescan iteration), the monitored-code scan keeps its
// own single-code PreparedCodebook refreshed only when the code changes, and
// all working buffers (coded bits, chips, channel window, received chips,
// sync hit, ECC workspaces) live in a per-instance scratch arena — the
// transmit_into() hot path performs zero heap allocations in the steady
// state, on a clean channel and under jamming alike.
#pragma once

#include <functional>
#include <vector>

#include "adversary/jammer.hpp"
#include "common/rng.hpp"
#include "core/jrsnd_node.hpp"
#include "core/params.hpp"
#include "core/phy_model.hpp"
#include "dsss/chip_channel.hpp"
#include "dsss/prepared_codebook.hpp"
#include "dsss/sliding_window.hpp"
#include "ecc/ecc_codec.hpp"
#include "sim/topology.hpp"

namespace jrsnd::core {

class ChipPhy final : public PhyModel {
 public:
  /// `receiver_codebook(node)` returns the prepared spread codes the node
  /// scans HELLO buffers with (its non-revoked pool codes). Returning a
  /// reference keeps the per-HELLO cost at a lookup — the prepared form owns
  /// the cached ShiftTables, so the callback must return a reference that
  /// outlives the transmit call (see dsss::NodeCodebookCache).
  using Codebook = std::function<const dsss::PreparedCodebook&(NodeId)>;

  ChipPhy(const Params& params, const sim::Topology& topology, const adversary::Jammer& jammer,
          Codebook receiver_codebook, Rng& rng);

  void begin_subsession(NodeId a, NodeId b, CodeId code) override;

  [[nodiscard]] std::optional<BitVector> transmit(NodeId from, NodeId to, TxCode code,
                                                  TxClass cls, const BitVector& payload) override {
    return into_optional(from, to, code, cls, payload);
  }

  /// Writes the decoded payload into `out` on success; allocation-free in
  /// the steady state, jammed or not.
  [[nodiscard]] bool transmit_into(NodeId from, NodeId to, TxCode code, TxClass cls,
                                   const BitVector& payload, BitVector& out) override;

  /// Jam profile when the jammer strikes: it identifies the code during the
  /// first `start` fraction of the message (paper: 1/(1+mu)) and jams the
  /// following `coverage` fraction. The default start=0.25, coverage=0.75
  /// leaves the head intact for synchronization but corrupts far beyond the
  /// ECC capability, so a strike reliably defeats decoding.
  void set_jam_profile(double start, double coverage) noexcept {
    jam_start_ = start;
    jam_coverage_ = coverage;
  }

  [[nodiscard]] std::uint64_t chip_messages() const noexcept { return messages_; }
  [[nodiscard]] std::uint64_t chip_jams() const noexcept { return jams_; }

 private:
  bool transmit_pipeline(NodeId from, NodeId to, TxCode code, TxClass cls,
                         const BitVector& payload, BitVector& out);

  /// The transmit scratch arena: every per-message working buffer, reused
  /// across calls so steady-state transmissions stop heap-allocating. One
  /// per ChipPhy — the instance is single-threaded by construction (it
  /// mutates a shared Rng).
  struct TransmitScratch {
    BitVector coded;             ///< ECC-expanded payload
    BitVector chips;             ///< spread chip sequence
    BitVector flipped;           ///< inverted code pattern (spread_into)
    dsss::ChipChannel channel;   ///< superposition window
    adversary::ChipJam jam;      ///< the striking jammer's chip pattern
    BitVector received;          ///< receiver's hard-decision chips
    dsss::SyncHit hit;           ///< sync result incl. despread buffers
    ecc::EccCodec::Scratch ecc;  ///< RS block workspaces
  };

  const Params& params_;
  const sim::Topology& topology_;
  const adversary::Jammer& jammer_;
  Codebook codebook_;
  Rng& rng_;
  ecc::EccCodec codec_;
  double jam_start_ = 0.25;
  double jam_coverage_ = 0.75;
  /// Parallel jamming signals a strike superposes on the victim's chips.
  static constexpr std::uint32_t kJamSignals = 2;

  // Single-code candidate set for monitored (non-HELLO) messages, refreshed
  // only when the monitored code actually changes.
  dsss::PreparedCodebook monitored_;
  TransmitScratch scratch_;

  // Sub-session fates, mirroring AbstractPhy so the two planes agree on the
  // grouped follow-up jamming semantics of Theorem 1.
  bool hello_jammed_ = false;
  bool followups_jammed_ = false;

  std::uint64_t messages_ = 0;
  std::uint64_t jams_ = 0;
};

/// The codebook of each node's usable (non-revoked) codes, read from
/// `nodes` on every call, so revocations and nodes issued after the ChipPhy
/// is built show through; `cache` rebuilds a node's prepared form only when
/// its codes changed. Both must outlive the returned codebook.
[[nodiscard]] ChipPhy::Codebook usable_codebook(const std::vector<NodeState>& nodes,
                                                dsss::NodeCodebookCache& cache);

}  // namespace jrsnd::core
