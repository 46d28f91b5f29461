#pragma once

/// \file thread_pool.hpp
/// Fixed-size worker pool and the indexed parallel-for the evaluation
/// engine runs on. The pool executes opaque tasks; parallel_for layers a
/// work-stealing-free atomic index over it so N items are spread across
/// the workers without any per-item allocation.
///
/// Determinism contract (see DESIGN.md, "Parallel evaluation"): callers
/// write per-index results into pre-sized slots and reduce serially in
/// index order afterwards, so the output is byte-identical to a serial
/// run regardless of the job count.

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace fetch::util {

/// Worker count used when a `--jobs` knob is 0/unset: the FETCH_JOBS
/// environment variable when it parses to a positive integer, otherwise
/// the hardware concurrency (at least 1).
inline std::size_t default_jobs() {
  if (const char* env = std::getenv("FETCH_JOBS")) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && value > 0) {
      return static_cast<std::size_t>(value);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// A fixed set of worker threads draining a FIFO task queue. Tasks must
/// not throw; wrap anything that can (parallel_for does).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads) {
    threads = threads == 0 ? 1 : threads;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins after the queue drains; tasks submitted before destruction all
  /// run.
  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) {
      t.join();
    }
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  void submit(std::function<void()> task) {
    FETCH_ASSERT(task != nullptr);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      FETCH_ASSERT(!stopping_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void worker() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;  // stopping and drained
        }
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0), ..., fn(count-1) across up to \p jobs workers of \p pool.
/// Blocks until every index ran. The first exception thrown by \p fn is
/// rethrown here (remaining indices are skipped once a failure is seen).
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t count, Fn&& fn) {
  if (count == 0) {
    return;
  }
  const std::size_t lanes = std::min(pool.size(), count);
  if (lanes <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  std::latch done(static_cast<std::ptrdiff_t>(lanes));
  auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) {
        break;
      }
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) {
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
    done.count_down();
  };
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    pool.submit(drain);
  }
  done.wait();
  if (error) {
    std::rethrow_exception(error);
  }
}

/// Convenience overload: spins up a transient pool of \p jobs workers
/// (0 → default_jobs()). Serial fast path when one worker suffices.
template <typename Fn>
void parallel_for(std::size_t jobs, std::size_t count, Fn&& fn) {
  if (jobs == 0) {
    jobs = default_jobs();
  }
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  ThreadPool pool(std::min(jobs, count));
  parallel_for(pool, count, std::forward<Fn>(fn));
}

/// Maps fn over [0, count) into a pre-sized result vector: out[i] = fn(i),
/// computed on up to \p jobs workers. This is the slot-per-index half of
/// the determinism contract; callers fold the returned vector serially in
/// index order.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_map(std::size_t jobs, std::size_t count,
                                          Fn&& fn) {
  std::vector<T> out(count);
  parallel_for(jobs, count, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace fetch::util
