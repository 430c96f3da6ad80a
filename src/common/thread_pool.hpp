// Work-stealing thread-pool executor behind the in-process ensemble driver
// (ensemble/driver), which runs one scenario per parallel_for iteration.
// The single-trace analysis itself is serial.
//
// Design goals, in priority order:
//  1. Determinism: callers place every result by its iteration index, so
//     the output does not depend on thread count or scheduling.
//  2. No regression at one thread: a pool with thread_count() == 1 spawns
//     no workers and runs everything inline on the caller — the serial hot
//     path pays no synchronization.
//  3. Safe nesting: a parallel_for issued from inside a pool task makes
//     progress on the calling thread alone, so stacked parallel stages
//     cannot deadlock even when every worker is busy.
//
// Each worker owns a deque protected by a small mutex; submit() distributes
// round-robin, owners pop newest-first (LIFO, cache-warm), thieves steal
// oldest-first (FIFO). The pending-task count is bounded: submit() blocks
// while the pool is `queue_capacity` tasks behind, so a runaway producer
// cannot balloon memory.
//
// Thread count resolution (resolve_threads): an explicit request wins, then
// the G10_THREADS environment variable, then std::thread::hardware_concurrency.
//
// Lock discipline is declared with the thread-safety annotations from
// common/thread_annotations.hpp and enforced at compile time under Clang
// (-Werror=thread-safety): every shared field names the mutex that guards
// it, and accessing one without holding that mutex is a build error.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace g10 {

class ThreadPool {
 public:
  struct Options {
    /// Total concurrency including the submitting thread: a pool with
    /// `threads == n` spawns n - 1 workers. 0 resolves via resolve_threads.
    std::size_t threads = 0;
    /// Bound on queued-but-not-started tasks; submit() blocks at the cap.
    std::size_t queue_capacity = 4096;
  };

  /// Default-constructed pool: auto thread count, default queue bound.
  ThreadPool() : ThreadPool(Options{}) {}
  explicit ThreadPool(Options options);
  explicit ThreadPool(std::size_t threads)
      : ThreadPool(Options{threads, 4096}) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency: workers plus the caller participating in
  /// parallel_for. Always >= 1.
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Enqueues a task for a worker thread. With no workers the task runs
  /// inline. Blocks while `queue_capacity` tasks are already pending.
  /// Tasks must not throw (wrap and capture; parallel_for does this).
  void submit(std::function<void()> task) G10_EXCLUDES(state_mutex_);

  /// Like submit(), but never blocks: returns false (dropping the task)
  /// when the queue is at capacity or the pool has no workers. Used by
  /// parallel_for, whose fan-outs complete through the caller regardless.
  bool try_submit(std::function<void()> task) G10_EXCLUDES(state_mutex_);

  /// Blocks until every submitted task has finished executing.
  void wait_idle() G10_EXCLUDES(state_mutex_);

  /// Runs body(i) for every i in [0, n), fanned out in `grain`-sized
  /// contiguous chunks. The caller participates; returns once all n
  /// iterations completed. If any body threw, rethrows the exception of
  /// the lowest-indexed failing chunk (deterministic across schedules).
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t)>& body)
      G10_EXCLUDES(state_mutex_);

  /// Resolves a requested thread count: `requested` if nonzero, else
  /// G10_THREADS (when set to a positive integer), else hardware
  /// concurrency. Never returns 0.
  static std::size_t resolve_threads(std::size_t requested);

 private:
  struct Worker {
    Mutex mutex;
    std::deque<std::function<void()>> tasks G10_GUARDED_BY(mutex);
    std::thread thread;
  };

  void worker_loop(std::size_t self) G10_EXCLUDES(state_mutex_);
  bool try_acquire(std::size_t self, std::function<void()>& out)
      G10_EXCLUDES(state_mutex_);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t queue_capacity_ = 4096;

  Mutex state_mutex_;
  /// condition_variable_any waits on the annotated Mutex itself, so the
  /// guarded members below stay under one declared capability.
  std::condition_variable_any wake_cv_;   ///< workers: work available or stop
  std::condition_variable_any space_cv_;  ///< producers: queue below capacity
  std::condition_variable_any idle_cv_;   ///< wait_idle: all tasks finished
  std::size_t pending_ G10_GUARDED_BY(state_mutex_) = 0;  ///< queued, unstarted
  std::size_t unfinished_ G10_GUARDED_BY(state_mutex_) = 0;  ///< or running
  std::size_t next_worker_ G10_GUARDED_BY(state_mutex_) = 0;
  bool stop_ G10_GUARDED_BY(state_mutex_) = false;
};

}  // namespace g10
