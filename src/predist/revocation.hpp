// Local spread-code revocation — the DoS defence of paper §V-D.
//
// Each node keeps a counter per code it holds. Every invalid
// neighbor-discovery request that arrives spread with code C_x (bad
// signature / failed MAC) bumps C_x's counter; when it exceeds gamma the
// node locally revokes C_x and stops de-spreading with it. An adversary who
// compromised a code can therefore waste at most (l-1) * gamma signature
// verifications network-wide on that code, versus unbounded for schemes with
// public code sets.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace jrsnd::predist {

class RevocationState {
 public:
  /// `gamma` is the invalid-request threshold; `codes` the node's code set.
  RevocationState(std::uint32_t gamma, const std::vector<CodeId>& codes);

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

  [[nodiscard]] std::uint32_t invalid_count(CodeId code) const;
  [[nodiscard]] std::uint32_t gamma() const noexcept { return gamma_; }

  /// Total invalid requests this node has had to verify (the DoS cost).
  [[nodiscard]] std::uint64_t total_invalid_verifications() const noexcept { return total_; }

 private:
  struct Entry {
    std::uint32_t invalid = 0;
    bool revoked = false;
  };

  /// Marks `entry` (for `code`) revoked and drops the code from usable_.
  void mark_revoked(CodeId code, Entry& entry);

  std::uint32_t gamma_;
  std::unordered_map<CodeId, Entry> entries_;
  std::vector<CodeId> usable_;  ///< held, non-revoked codes, ascending
  std::uint64_t total_ = 0;
};

}  // namespace jrsnd::predist
