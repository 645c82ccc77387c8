// Strong identifier and simulated-time types shared by every jrsnd subsystem.
//
// The paper reasons about nodes, spread codes, and wall-clock durations
// (chip times, buffering windows, key-computation costs). We give each its
// own vocabulary type so that a CodeId can never be passed where a NodeId is
// expected and a chip count can never be confused with seconds.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>

namespace jrsnd {

/// Identifies a MANET node. The paper gives IDs l_id = 16 bits; we keep a
/// 32-bit representation so simulations may exceed 65k nodes, but the wire
/// encoding (src/core/messages.*) serializes only l_id bits.
enum class NodeId : std::uint32_t {};

/// Identifies a spread code within the authority's secret pool C = {C_i}.
enum class CodeId : std::uint32_t {};

constexpr NodeId kInvalidNode{std::numeric_limits<std::uint32_t>::max()};
constexpr CodeId kInvalidCode{std::numeric_limits<std::uint32_t>::max()};

constexpr std::uint32_t raw(NodeId id) noexcept { return static_cast<std::uint32_t>(id); }
constexpr std::uint32_t raw(CodeId id) noexcept { return static_cast<std::uint32_t>(id); }

constexpr NodeId node_id(std::uint32_t v) noexcept { return NodeId{v}; }
constexpr CodeId code_id(std::uint32_t v) noexcept { return CodeId{v}; }

/// Simulated duration in seconds. A thin strong type: arithmetic is allowed,
/// but implicit mixing with raw doubles is not.
class Duration {
 public:
  constexpr Duration() noexcept = default;
  constexpr explicit Duration(double seconds) noexcept : seconds_(seconds) {}

  [[nodiscard]] constexpr double seconds() const noexcept { return seconds_; }
  [[nodiscard]] constexpr double millis() const noexcept { return seconds_ * 1e3; }
  [[nodiscard]] constexpr double micros() const noexcept { return seconds_ * 1e6; }

  constexpr auto operator<=>(const Duration&) const noexcept = default;

  constexpr Duration& operator+=(Duration d) noexcept { seconds_ += d.seconds_; return *this; }
  constexpr Duration& operator-=(Duration d) noexcept { seconds_ -= d.seconds_; return *this; }
  constexpr Duration& operator*=(double k) noexcept { seconds_ *= k; return *this; }

  friend constexpr Duration operator+(Duration a, Duration b) noexcept { return Duration(a.seconds_ + b.seconds_); }
  friend constexpr Duration operator-(Duration a, Duration b) noexcept { return Duration(a.seconds_ - b.seconds_); }
  friend constexpr Duration operator*(Duration a, double k) noexcept { return Duration(a.seconds_ * k); }
  friend constexpr Duration operator*(double k, Duration a) noexcept { return Duration(k * a.seconds_); }
  friend constexpr double operator/(Duration a, Duration b) noexcept { return a.seconds_ / b.seconds_; }
  friend constexpr Duration operator/(Duration a, double k) noexcept { return Duration(a.seconds_ / k); }

 private:
  double seconds_ = 0.0;
};

constexpr Duration seconds(double s) noexcept { return Duration(s); }
constexpr Duration millis(double ms) noexcept { return Duration(ms * 1e-3); }
constexpr Duration micros(double us) noexcept { return Duration(us * 1e-6); }

/// A point on the simulated timeline (seconds since simulation start).
class TimePoint {
 public:
  constexpr TimePoint() noexcept = default;
  constexpr explicit TimePoint(double seconds) noexcept : seconds_(seconds) {}

  [[nodiscard]] constexpr double seconds() const noexcept { return seconds_; }

  constexpr auto operator<=>(const TimePoint&) const noexcept = default;

  friend constexpr TimePoint operator+(TimePoint t, Duration d) noexcept { return TimePoint(t.seconds_ + d.seconds()); }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) noexcept { return TimePoint(t.seconds_ - d.seconds()); }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) noexcept { return Duration(a.seconds_ - b.seconds_); }

 private:
  double seconds_ = 0.0;
};

constexpr TimePoint kSimStart{0.0};

/// Id-keyed state lives in sorted vectors, never in hash tables: one table
/// type. The standard library enables std::hash for every enum, so the two
/// id types get disabled specializations, and an
/// std::unordered_map<NodeId, T> fails to compile.
struct DisabledIdHash {
  DisabledIdHash() = delete;
  DisabledIdHash(const DisabledIdHash&) = delete;
  DisabledIdHash& operator=(const DisabledIdHash&) = delete;
};

}  // namespace jrsnd

template <>
struct std::hash<jrsnd::NodeId> : jrsnd::DisabledIdHash {};
template <>
struct std::hash<jrsnd::CodeId> : jrsnd::DisabledIdHash {};
