// Local spread-code revocation — the DoS defence of paper §V-D.
//
// Each node keeps a counter per code it holds. Every invalid
// neighbor-discovery request that arrives spread with code C_x (bad
// signature / failed MAC) bumps C_x's counter; when it exceeds gamma the
// node locally revokes C_x and stops de-spreading with it. An adversary who
// compromised a code can therefore waste at most (l-1) * gamma signature
// verifications network-wide on that code, versus unbounded for schemes with
// public code sets.
//
// A code is revoked when it is held but no longer usable. References from
// usable_codes() and held_codes() stay valid for the state's lifetime.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace jrsnd::predist {

class RevocationState {
 public:
  /// `gamma` is the invalid-request threshold; `codes` the node's code set,
  /// in any order (a duplicate is held once).
  RevocationState(std::uint32_t gamma, std::vector<CodeId> codes);

  /// Records an invalid request received spread with `code`.
  /// Returns true if this report crossed the threshold and revoked the code.
  bool report_invalid(CodeId code);

  /// Unconditionally revokes `code` (authority-driven revocation, §V-D).
  /// Returns true if the code was held and not already revoked.
  bool revoke(CodeId code);

  /// True when the node no longer de-spreads with `code`.
  [[nodiscard]] bool is_revoked(CodeId code) const;

  /// True when `code` belongs to this node and is not revoked.
  [[nodiscard]] bool is_usable(CodeId code) const;

  /// Codes still usable, ascending. Maintained incrementally (a revocation
  /// erases its code), so reading it neither allocates nor sorts.
  [[nodiscard]] const std::vector<CodeId>& usable_codes() const noexcept { return usable_; }

  /// Every held code, revoked or not, ascending and duplicate-free.
  [[nodiscard]] const std::vector<CodeId>& held_codes() const noexcept { return held_; }

  [[nodiscard]] std::uint32_t invalid_count(CodeId code) const;
  [[nodiscard]] std::uint32_t gamma() const noexcept { return gamma_; }

  /// Total invalid requests this node has had to verify (the DoS cost).
  [[nodiscard]] std::uint64_t total_invalid_verifications() const noexcept { return total_; }

 private:
  std::uint32_t gamma_;
  std::vector<CodeId> held_;            ///< held codes, ascending, unique
  std::vector<std::uint32_t> invalid_;  ///< invalid_[i]: reports on held_[i]
  std::vector<CodeId> usable_;          ///< held, non-revoked codes, ascending
  std::uint64_t total_ = 0;
};

}  // namespace jrsnd::predist
