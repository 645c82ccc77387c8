#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hpp"
#include "common/parse.hpp"

namespace jrsnd {

/// One parallel_for invocation: an atomic index dispenser plus completion
/// accounting. Workers claim indices until the dispenser runs dry.
struct ThreadPool::Job {
  std::size_t count = 0;
  std::function<void(std::size_t, std::size_t)> fn;  // (index, worker_id)
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::exception_ptr first_error;  // guarded by error_mutex
  std::mutex error_mutex;

  /// Runs indices on behalf of `worker_id` until none remain.
  void drain(std::size_t worker_id) {
    for (;;) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) return;
      try {
        fn(index, worker_id);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      done.fetch_add(1, std::memory_order_acq_rel);
    }
  }
};

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wake;     // workers wait here for a job
  std::condition_variable finished; // the caller waits here for completion
  std::shared_ptr<Job> job;         // null when idle
  std::uint64_t generation = 0;     // bumped per submitted job
  bool stop = false;
  std::vector<std::thread> workers;
};

ThreadPool::ThreadPool(std::size_t threads)
    : thread_count_(std::max<std::size_t>(threads, 1)), impl_(new Impl) {
  // Worker 0 is the calling thread; spawn the rest.
  for (std::size_t id = 1; id < thread_count_; ++id) {
    impl_->workers.emplace_back([this, id] { worker_loop(id); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->wake.wait(lock, [&] {
        return impl_->stop || (impl_->job != nullptr && impl_->generation != seen_generation);
      });
      if (impl_->stop) return;
      job = impl_->job;
      seen_generation = impl_->generation;
    }
    job->drain(worker_id);
    if (job->done.load(std::memory_order_acquire) == job->count) {
      // The completion flag is an atomic updated outside the mutex; passing
      // through the lock before notifying orders this notify after the
      // caller's predicate check, so the wakeup cannot be lost.
      { const std::lock_guard<std::mutex> lock(impl_->mutex); }
      impl_->finished.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (thread_count_ == 1 || count == 1) {
    // Serial fast path: no job setup, exceptions propagate directly.
    for (std::size_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }

  auto job = std::make_shared<Job>();
  job->count = count;
  job->fn = fn;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = job;
    ++impl_->generation;
  }
  impl_->wake.notify_all();

  // The caller is worker 0: it works instead of idling, and a pool used
  // from a single thread still makes progress.
  job->drain(0);

  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->finished.wait(
        lock, [&] { return job->done.load(std::memory_order_acquire) == job->count; });
    impl_->job = nullptr;
  }
  if (job->first_error) std::rethrow_exception(job->first_error);
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  parallel_for(count, [&fn](std::size_t index, std::size_t /*worker*/) { fn(index); });
}

std::optional<std::size_t> ThreadPool::parse_thread_count(std::string_view text) noexcept {
  const std::optional<std::uint64_t> value = parse_u64(text);
  if (!value.has_value() || *value == 0) return std::nullopt;
  return static_cast<std::size_t>(std::min<std::uint64_t>(*value, 256));
}

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : hw;
  if (const char* env = std::getenv("JRSND_THREADS"); env != nullptr && env[0] != '\0') {
    if (const auto threads = parse_thread_count(env)) return *threads;
    JRSND_WARN("threads") << "invalid JRSND_THREADS value '" << env
                          << "' (want an integer >= 1); using " << fallback;
  }
  return fallback;
}

}  // namespace jrsnd
