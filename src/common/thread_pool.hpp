// Fixed-size thread pool + blocking parallel_for (docs/performance.md).
//
// The Monte-Carlo layer of every figure bench is embarrassingly parallel:
// config.params.runs fully-deterministic seeded worlds with no shared mutable
// state. A work-stealing scheduler would be over-engineering for that shape —
// this pool hands out loop indices from one atomic counter (workers that
// finish early simply grab the next index; there is nothing to steal), and
// the caller reduces results in index order so parallel output is
// bit-identical to serial.
//
// Thread count policy, in order:
//   * JRSND_THREADS env var (>= 1; 1 restores fully serial behavior),
//   * hardware concurrency otherwise.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

namespace jrsnd {

class ThreadPool {
 public:
  /// Spawns `threads` workers (values < 1 are clamped to 1). A pool of size
  /// 1 spawns no workers at all: parallel_for runs inline on the caller.
  explicit ThreadPool(std::size_t threads = default_thread_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count, including the calling thread (>= 1).
  [[nodiscard]] std::size_t size() const noexcept { return thread_count_; }

  /// Runs fn(index) for every index in [0, count), distributing indices
  /// dynamically across the pool plus the calling thread, and blocks until
  /// all complete. If any invocation throws, the first exception (in
  /// completion order) is rethrown on the caller after the loop drains;
  /// remaining indices still run.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// As above, but fn also receives a stable worker id in [0, size()):
  /// 0 for the calling thread, 1.. for pool workers. Tasks with the same
  /// worker id never run concurrently, so per-worker scratch state
  /// (e.g. an obs scratch registry) needs no further synchronization.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// JRSND_THREADS env var if set to an integer >= 1 (clamped to 256; a
  /// malformed value warns), otherwise std::thread::hardware_concurrency()
  /// (at least 1).
  [[nodiscard]] static std::size_t default_thread_count();
  /// The JRSND_THREADS parse; nullopt for "0", "-2", "4abc", "".
  [[nodiscard]] static std::optional<std::size_t> parse_thread_count(
      std::string_view text) noexcept;

 private:
  struct Job;
  void worker_loop(std::size_t worker_id);

  std::size_t thread_count_ = 1;
  struct Impl;
  Impl* impl_ = nullptr;  // pimpl keeps <thread>/<condition_variable> out of the header
};

}  // namespace jrsnd
