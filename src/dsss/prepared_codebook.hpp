// Cached per-codebook scan precomputation (ROADMAP: transmit hot path).
//
// The sliding-window scan's setup cost — the candidate pool's BatchShiftTable
// — is pure function of the codebook, yet find_first/all_messages historically
// rebuilt the tables on every call: once per transmission *and once more per
// recover-and-rescan iteration*, even though a receiver's codebook changes
// only when the authority rotates codes. PreparedCodebook owns a codebook
// snapshot and lazily builds its table exactly once, invalidating it only
// when the codes actually change; the scan entry points that take a
// PreparedCodebook (dsss/sliding_window.hpp) then run with zero per-call
// setup.
//
// Thread safety: batch_table() uses double-checked locking (atomic flag with
// acquire/release ordering plus a build mutex), so any number of PR-2
// thread-pool workers may scan against one shared PreparedCodebook
// concurrently. Mutation (assign / assign_if_changed) is NOT synchronized
// against concurrent readers — snapshot semantics: build the codebook, then
// share it read-only, exactly how the simulation engines use per-run worlds.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dsss/spread_code.hpp"
#include "dsss/sync_kernel.hpp"

namespace jrsnd::dsss {

class PreparedCodebook {
 public:
  PreparedCodebook() = default;
  explicit PreparedCodebook(std::vector<SpreadCode> codes) { assign(std::move(codes)); }

  /// Copies transfer the codes but not the table (it rebuilds lazily);
  /// moves keep everything. Neither is synchronized — copy/move during
  /// single-threaded setup only.
  PreparedCodebook(const PreparedCodebook& other)
      : codes_(other.codes_), uniform_(other.uniform_) {}
  PreparedCodebook(PreparedCodebook&& other) noexcept
      : codes_(std::move(other.codes_)),
        uniform_(other.uniform_),
        batch_(std::move(other.batch_)),
        built_(other.built_.load(std::memory_order_relaxed)) {}
  PreparedCodebook& operator=(const PreparedCodebook& other) {
    if (this != &other) {
      codes_ = other.codes_;
      uniform_ = other.uniform_;
      batch_ = BatchShiftTable();
      built_.store(false, std::memory_order_relaxed);
    }
    return *this;
  }
  PreparedCodebook& operator=(PreparedCodebook&& other) noexcept {
    if (this != &other) {
      codes_ = std::move(other.codes_);
      uniform_ = other.uniform_;
      batch_ = std::move(other.batch_);
      built_.store(other.built_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    }
    return *this;
  }

  /// Replaces the codebook and invalidates the cached table.
  void assign(std::vector<SpreadCode> codes);

  /// assign() only if `codes` differs from the current snapshot. The
  /// comparison is word-level over the packed chip patterns and allocates
  /// nothing, so calling this once per transmission (as ChipPhy does for the
  /// monitored-code scan) costs a few word compares in the steady state.
  /// Returns true when the codebook changed (the table was invalidated).
  bool assign_if_changed(std::span<const SpreadCode> codes);

  [[nodiscard]] std::span<const SpreadCode> codes() const noexcept { return codes_; }
  [[nodiscard]] std::size_t size() const noexcept { return codes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return codes_.empty(); }

  /// Chip length shared by every code, or 0 when empty.
  [[nodiscard]] std::size_t code_length() const noexcept {
    return codes_.empty() ? 0 : codes_[0].length();
  }

  /// True when every code shares codes()[0].length() — the scan stride
  /// precondition, validated once at assign() instead of once per scan.
  [[nodiscard]] bool uniform_lengths() const noexcept { return uniform_; }

  /// The SIMD-batched table (lane c holds codes()[c]), built on first use
  /// and reused until the codebook changes. Scans sync on it and despread
  /// from the hit's lane. Empty for an empty or mixed-length codebook, over
  /// which no scan runs. Safe to call from multiple threads concurrently.
  [[nodiscard]] const BatchShiftTable& batch_table() const;

 private:
  std::vector<SpreadCode> codes_;
  bool uniform_ = true;
  mutable BatchShiftTable batch_;
  mutable std::atomic<bool> built_{false};
  mutable std::mutex build_mutex_;
};

/// Per-receiver PreparedCodebook store for Codebook callbacks: test worlds
/// and tools look up (or create) the prepared form of node `id`'s codebook
/// and refresh it only when the underlying codes changed. Entries are
/// pointer-stable, so the returned references survive later lookups.
/// The entry table itself is mutex-guarded; concurrent mutation of one *entry*
/// follows PreparedCodebook's snapshot rules (single writer).
class NodeCodebookCache {
 public:
  /// The prepared codebook for `id`, refreshed from `codes` if it changed.
  const PreparedCodebook& prepare(NodeId id, std::span<const SpreadCode> codes);

  /// The (possibly empty) entry for `id`, creating it on first use.
  PreparedCodebook& entry(NodeId id);

 private:
  /// Ascending by id; each entry is heap-held, so inserting keeps the
  /// others where they are.
  std::vector<std::pair<NodeId, std::unique_ptr<PreparedCodebook>>> entries_;
  std::mutex mutex_;
};

}  // namespace jrsnd::dsss
