// Deterministic fault-injection plans.
//
// A FaultPlan is a declarative, seedable schedule of the adversities the
// paper's evaluation abstracts away: message drop/duplication/reorder,
// chip-burst corruption and truncation, per-node clock skew/drift, and
// crash/restart windows. Plans are plain data — parsed from JSON
// (`FaultPlan::from_json`) or assembled from CLI flags — and are applied by
// the FaultyPhy decorator (src/fault/faulty_phy.*), whose fault clock
// advances by `auto_tick` per transmission. Given the same plan and the same
// seed, every injected fault lands identically on every run and thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/handshake.hpp"

namespace jrsnd::fault {

/// One scheduled outage: `node` is down during [at, at + duration).
/// Transmissions to or from a down node are blocked; when the window ends
/// the node "restarts" with its codebook and key material intact (the paper
/// provisions both offline, so a reboot loses only in-flight handshakes).
struct CrashEvent {
  NodeId node = kInvalidNode;
  TimePoint at{0.0};
  Duration duration{0.0};

  [[nodiscard]] bool covers(TimePoint t) const noexcept {
    return t >= at && t < at + duration;
  }

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// The full declarative fault schedule. All probabilities are per-message
/// and independent; the default-constructed plan injects nothing.
struct FaultPlan {
  std::uint64_t seed = 0;       ///< fault stream seed (independent of the run seed)

  double drop = 0.0;            ///< P[delivered message is dropped]
  double duplicate = 0.0;       ///< P[delivered message is duplicated]
  double reorder = 0.0;         ///< P[delivered message swaps with the next one]
  double corrupt = 0.0;         ///< P[delivered message gets chip/bit flips]
  std::uint32_t corrupt_bits = 3;  ///< burst size: flips per corrupted message
  double truncate = 0.0;        ///< P[delivered message is truncated]

  double clock_skew_max = 0.0;  ///< per-node constant offset, uniform in +-max (s)
  double clock_drift_max = 0.0; ///< per-node rate error, uniform in +-max (fraction)

  /// When > 0, FaultyPhy advances its own clock by this many seconds per
  /// transmit — lets Monte-Carlo drivers exercise the crash schedule
  /// deterministically.
  double auto_tick = 0.0;

  std::vector<CrashEvent> crashes;

  /// True when the plan cannot affect any transmission — FaultyPhy with an
  /// inactive plan is a pure pass-through (the no-op equivalence the tests
  /// pin down).
  [[nodiscard]] bool active() const noexcept;

  /// Returns an error message when a field is out of range (probability
  /// outside [0,1], negative duration, ...), nullopt when the plan is valid.
  [[nodiscard]] std::optional<std::string> validate() const;

  /// Parses the documented JSON schema (docs/robustness.md). Unknown keys
  /// are rejected, missing keys keep their defaults.
  static std::optional<FaultPlan> from_json(std::string_view json,
                                            std::string* error = nullptr);

  [[nodiscard]] std::string to_json() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Stateless per-node clock model: skew (constant offset) and drift (rate
/// error) are derived from (plan seed, node id) by hashing, so any component
/// can ask for a node's clock without coordinating draws. Implements the
/// handshake layer's clock seam so drifting nodes mis-measure their retry
/// timeouts.
class ClockModel final : public core::HandshakeClock {
 public:
  ClockModel(std::uint64_t seed, double skew_max, double drift_max) noexcept
      : seed_(seed), skew_max_(skew_max), drift_max_(drift_max) {}

  explicit ClockModel(const FaultPlan& plan) noexcept
      : ClockModel(plan.seed, plan.clock_skew_max, plan.clock_drift_max) {}

  /// Constant offset of `node`'s clock, uniform in [-skew_max, +skew_max].
  [[nodiscard]] Duration skew(NodeId node) const noexcept;

  /// Clock rate of `node` (1.0 = nominal), uniform in [1-drift, 1+drift].
  [[nodiscard]] double rate(NodeId node) const noexcept override;

  /// What `node`'s local clock reads when true time is `t`.
  [[nodiscard]] TimePoint local_time(NodeId node, TimePoint t) const noexcept;

 private:
  std::uint64_t seed_;
  double skew_max_;
  double drift_max_;
};

}  // namespace jrsnd::fault
