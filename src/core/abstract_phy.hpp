// Message-level PHY applying Theorem 1's jamming-success model.
//
// Delivery succeeds iff the endpoints are physical neighbors and the jammer
// does not defeat the message. The jammer decision follows the adversary
// model: per D-NDP sub-session, the HELLO is jammed with the jammer's
// per-message probability and the three follow-ups share a single
// group-level jam event (the paper's beta'). Session-code transmissions are
// unjammable for a computationally bounded adversary (the code is a fresh
// N-bit secret).
#pragma once

#include <optional>

#include "adversary/jammer.hpp"
#include "common/rng.hpp"
#include "core/phy_model.hpp"
#include "sim/topology.hpp"

namespace jrsnd::core {

class AbstractPhy final : public PhyModel {
 public:
  AbstractPhy(const sim::Topology& topology, const adversary::Jammer& jammer, Rng& rng);

  void begin_subsession(NodeId a, NodeId b, CodeId code) override;

  [[nodiscard]] std::optional<BitVector> transmit(NodeId from, NodeId to, TxCode code,
                                                  TxClass cls, const BitVector& payload) override {
    return into_optional(from, to, code, cls, payload);
  }

  /// Delivery copy-assigns `payload` into `out`, reusing its storage.
  [[nodiscard]] bool transmit_into(NodeId from, NodeId to, TxCode code, TxClass cls,
                                   const BitVector& payload, BitVector& out) override;

  /// Delivery counters (diagnostics for tests/benches).
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t jammed() const noexcept { return jammed_; }
  [[nodiscard]] std::uint64_t out_of_range() const noexcept { return out_of_range_; }

 private:
  const sim::Topology& topology_;
  const adversary::Jammer& jammer_;
  Rng& rng_;

  // Fate of the current sub-session (set by begin_subsession).
  bool hello_jammed_ = false;
  bool followups_jammed_ = false;

  std::uint64_t delivered_ = 0;
  std::uint64_t jammed_ = 0;
  std::uint64_t out_of_range_ = 0;
};

}  // namespace jrsnd::core
