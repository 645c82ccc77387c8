// A discovery world rebuilt from the library's public constructors in
// DiscoverySimulator::run_once's Rng-split order, plus the PHY decorators and
// the traced D-NDP pass that time it from the outside.
//
// The order below must track run_once: authority, placement, adversary, the
// IBC master draw, one split per node, then the PHY and the pair order. A
// change to run_once's world composition or Rng order needs the matching
// change here first, or the traced pass stops reproducing run_once
// (layers.identical drops to 0).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "adversary/compromise.hpp"
#include "adversary/jammer.hpp"
#include "common/rng.hpp"
#include "core/chip_phy.hpp"
#include "core/discovery_sim.hpp"
#include "core/dndp.hpp"
#include "core/jrsnd_node.hpp"
#include "crypto/ibc.hpp"
#include "ledger.hpp"
#include "predist/authority.hpp"
#include "sim/topology.hpp"

namespace e2e {

class World {
 public:
  /// Builds the world of run_once(seed), nodes included. With a ledger, each
  /// construction step is a `world.*` span.
  World(const jrsnd::core::Params& params, jrsnd::core::JammerKind jammer, std::uint64_t seed,
        SpanLedger* ledger);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Rebuilds every NodeState exactly as run_once does (fresh neighbor
  /// tables, fresh per-node Rngs) and returns the root Rng positioned after
  /// them: its next split seeds the PHY, the one after that the pair order.
  jrsnd::Rng reset_nodes();

  jrsnd::core::Params params;
  std::optional<jrsnd::predist::CodePoolAuthority> authority;
  std::optional<jrsnd::sim::Topology> topology;
  std::optional<jrsnd::adversary::CompromiseModel> compromise;
  std::unique_ptr<jrsnd::adversary::Jammer> jammer;
  std::optional<jrsnd::crypto::IbcAuthority> ibc;
  std::vector<jrsnd::crypto::IbcPrivateKey> keys;
  std::vector<jrsnd::core::NodeState> nodes;
  jrsnd::Rng root{0};  ///< positioned after the nodes (see reset_nodes)

 private:
  jrsnd::Rng after_ibc_{0};
};

/// Decorator that times every transmit as a `phy.transmit` span and keeps
/// the AUTH frames of the current pair for the crypto replay. Draws nothing
/// from any Rng, so the wrapped PHY's outcomes are unchanged.
class LedgerPhy final : public jrsnd::core::PhyModel {
 public:
  struct AuthFrame {
    jrsnd::NodeId from;
    jrsnd::NodeId to;
    jrsnd::CodeId code;
    jrsnd::BitVector sent;
    std::optional<jrsnd::BitVector> received;
    /// The CONFIRM the initiator last received: the engine keys its AUTH
    /// with the sender id decoded from it, which the chip PHY can corrupt.
    jrsnd::BitVector last_confirm;
  };

  /// `chip`, when the inner PHY is one, lets the decorator tell struck
  /// frames apart (miscorrection accounting).
  LedgerPhy(jrsnd::core::PhyModel& inner, SpanLedger& ledger,
            const jrsnd::core::ChipPhy* chip = nullptr)
      : inner_(inner), ledger_(ledger), chip_(chip) {}

  void begin_subsession(jrsnd::NodeId a, jrsnd::NodeId b, jrsnd::CodeId code) override;
  [[nodiscard]] std::optional<jrsnd::BitVector> transmit(
      jrsnd::NodeId from, jrsnd::NodeId to, jrsnd::core::TxCode code,
      jrsnd::core::TxClass cls, const jrsnd::BitVector& payload) override;

  std::vector<AuthFrame>& auth_frames() noexcept { return auth_; }

  std::uint64_t subsessions = 0;
  std::uint64_t frames = 0;
  std::uint64_t delivered = 0;
  std::uint64_t struck_hellos = 0;       ///< HELLOs the chip-level jammer struck
  std::uint64_t miscorrected_hellos = 0; ///< ... delivered with wrong bits

 private:
  jrsnd::core::PhyModel& inner_;
  SpanLedger& ledger_;
  const jrsnd::core::ChipPhy* chip_;
  std::vector<AuthFrame> auth_;
  jrsnd::BitVector last_confirm_;
};

/// Decorator that records each transmit's duration (ns) — the timed pass's
/// frame latency, from payload to decoded bits.
class TimedPhy final : public jrsnd::core::PhyModel {
 public:
  TimedPhy(jrsnd::core::PhyModel& inner, std::vector<double>& frame_ns)
      : inner_(inner), frame_ns_(frame_ns) {}

  void begin_subsession(jrsnd::NodeId a, jrsnd::NodeId b, jrsnd::CodeId code) override {
    inner_.begin_subsession(a, b, code);
  }
  [[nodiscard]] std::optional<jrsnd::BitVector> transmit(
      jrsnd::NodeId from, jrsnd::NodeId to, jrsnd::core::TxCode code,
      jrsnd::core::TxClass cls, const jrsnd::BitVector& payload) override;

 private:
  jrsnd::core::PhyModel& inner_;
  std::vector<double>& frame_ns_;
};

/// What the traced D-NDP pass did, counted by the benchmark itself.
struct DndpTally {
  std::uint64_t pairs = 0;
  std::uint64_t discovered = 0;
  std::uint64_t usable_code_calls = 0;
  std::uint64_t verify_calls = 0;
  std::uint64_t make_calls = 0;
  std::uint64_t shared_key_calls = 0;
  std::uint64_t session_code_calls = 0;
  std::vector<std::pair<jrsnd::NodeId, jrsnd::NodeId>> failed;
};

/// D-NDP over every physical pair in run_once's order (initiator drawn from
/// `order_rng`), one `dndp.pair` span per DndpEngine::run. After each pair
/// the benchmark replays, under one replayed `replay` root span, the calls
/// the engine makes internally: the two usable_codes() calls, then
/// shared_key, AuthMessage::make, HandshakeVerifier::verify_auth and
/// derive_session_code on the recorded frames' ids, nonces and keys. The
/// replays run warm and with metrics disabled, so the engine's own counters
/// stay comparable with the tally. Discovered pairs are added to `logical`
/// when given.
[[nodiscard]] DndpTally traced_dndp(World& world, LedgerPhy& phy, jrsnd::core::DndpEngine& engine,
                                    jrsnd::Rng& order_rng, jrsnd::sim::LogicalGraph* logical,
                                    SpanLedger& ledger, Checks& checks);

}  // namespace e2e
