// FaultyPhy — a deterministic fault-injecting decorator over any PhyModel.
//
// Sits between the protocol engines and AbstractPhy/ChipPhy (the same seam
// TracingPhy uses) and applies a FaultPlan to every transmission: crash
// windows block the endpoints, then — for messages the inner PHY actually
// delivered — drop, chip-burst corruption, truncation, reorder, and
// duplication, in that order. Injection draws come from the decorator's own
// Rng, seeded from the plan (never split from the run's root Rng chain), so
// wrapping a phy with an inactive plan leaves the simulation bit-identical.
//
// Reorder and duplication are modeled with a per-directed-link 1-deep "held
// slot" over the synchronous transmit API: a reordered message parks in the
// slot and the *next* delivery on that link pops it instead (the two swap);
// a duplicated message additionally parks a copy, so the next delivery sees
// the stale copy — exactly what a replayed frame looks like to the receiver.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "core/phy_model.hpp"

namespace jrsnd::fault {

class FaultyPhy final : public core::PhyModel {
 public:
  /// `run_salt` decorrelates the fault stream across Monte-Carlo runs while
  /// keeping it a pure function of (plan.seed, run_salt).
  FaultyPhy(core::PhyModel& inner, const FaultPlan& plan,
            std::uint64_t run_salt = 0);

  void begin_subsession(NodeId a, NodeId b, CodeId code) override;

  [[nodiscard]] std::optional<BitVector> transmit(NodeId from, NodeId to,
                                                  core::TxCode code, core::TxClass cls,
                                                  const BitVector& payload) override;

  /// Sets the fault clock (drives the crash schedule). Monte-Carlo drivers
  /// advance it through plan.auto_tick instead.
  void set_now(TimePoint now) noexcept { now_ = now; }
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// True when `node` is inside one of the plan's crash windows right now.
  [[nodiscard]] bool is_down(NodeId node) const noexcept;

  [[nodiscard]] const ClockModel& clocks() const noexcept { return clocks_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Totals of faults this decorator actually injected (also counted in the
  /// obs registry under fault.injected.*).
  struct Totals {
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t truncated = 0;
    std::uint64_t crash_blocked = 0;
  };
  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }

 private:
  [[nodiscard]] BitVector corrupt(BitVector bits);

  core::PhyModel& inner_;
  FaultPlan plan_;
  ClockModel clocks_;
  Rng rng_;
  TimePoint now_{0.0};
  Totals totals_;
  bool crash_dumped_ = false;  ///< flight dump fired for this phy's first crash block

  struct LinkKey {
    NodeId from;
    NodeId to;
    friend bool operator==(const LinkKey&, const LinkKey&) = default;
  };
  struct LinkKeyHash {
    std::size_t operator()(const LinkKey& k) const noexcept {
      return (static_cast<std::size_t>(raw(k.from)) << 32) ^ raw(k.to);
    }
  };
  /// 1-deep held messages per directed link (reorder/duplicate state).
  std::unordered_map<LinkKey, BitVector, LinkKeyHash> held_;
};

}  // namespace jrsnd::fault
