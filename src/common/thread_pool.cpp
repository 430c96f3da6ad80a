#include "common/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

namespace g10 {

namespace {

std::size_t env_threads() {
  // srclint: entropy-ok(documented G10_THREADS override; selects parallelism, never results)
  const char* raw = std::getenv("G10_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || value <= 0) return 0;
  return static_cast<std::size_t>(value);
}

}  // namespace

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const std::size_t env = env_threads(); env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(Options options)
    : queue_capacity_(options.queue_capacity > 0 ? options.queue_capacity : 1) {
  const std::size_t threads = resolve_threads(options.threads);
  if (threads <= 1) return;  // serial pool: everything runs inline
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(state_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  std::size_t target;
  {
    MutexLock lock(state_mutex_);
    while (pending_ >= queue_capacity_ && !stop_) space_cv_.wait(state_mutex_);
    if (stop_) return;
    ++pending_;
    ++unfinished_;
    target = next_worker_++ % workers_.size();
  }
  {
    MutexLock lock(workers_[target]->mutex);
    workers_[target]->tasks.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_submit(std::function<void()> task) {
  if (workers_.empty()) return false;
  std::size_t target;
  {
    MutexLock lock(state_mutex_);
    if (stop_ || pending_ >= queue_capacity_) return false;
    ++pending_;
    ++unfinished_;
    target = next_worker_++ % workers_.size();
  }
  {
    MutexLock lock(workers_[target]->mutex);
    workers_[target]->tasks.push_back(std::move(task));
  }
  wake_cv_.notify_one();
  return true;
}

bool ThreadPool::try_acquire(std::size_t self, std::function<void()>& out) {
  // Own queue first, newest task (LIFO keeps the cache warm) ...
  {
    Worker& mine = *workers_[self];
    MutexLock lock(mine.mutex);
    if (!mine.tasks.empty()) {
      out = std::move(mine.tasks.back());
      mine.tasks.pop_back();
      return true;
    }
  }
  // ... then steal the oldest task from a sibling (FIFO spreads the large,
  // early chunks of a fan-out across thieves).
  for (std::size_t k = 1; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(self + k) % workers_.size()];
    MutexLock lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  while (true) {
    std::function<void()> task;
    if (!try_acquire(self, task)) {
      MutexLock lock(state_mutex_);
      while (pending_ == 0 && !stop_) wake_cv_.wait(state_mutex_);
      if (stop_ && pending_ == 0) return;
      continue;  // re-scan the queues with the lock released
    }
    {
      MutexLock lock(state_mutex_);
      --pending_;
    }
    space_cv_.notify_one();
    task();
    {
      MutexLock lock(state_mutex_);
      if (--unfinished_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  MutexLock lock(state_mutex_);
  while (unfinished_ != 0) idle_cv_.wait(state_mutex_);
}

namespace {

/// Shared state of one parallel_for fan-out. Chunks are claimed through an
/// atomic cursor; completion is tracked under a mutex so waiters can sleep.
/// Kept alive by shared_ptr: a task may still sit in a worker deque after
/// the caller finished every chunk itself and returned.
struct ForLoopState {
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t chunk_count = 0;
  const std::function<void(std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next_chunk{0};
  Mutex mutex;
  std::condition_variable_any done_cv;
  std::size_t chunks_done G10_GUARDED_BY(mutex) = 0;
  /// Exception of the lowest-index failing chunk, for deterministic rethrow.
  std::size_t error_chunk G10_GUARDED_BY(mutex) = 0;
  std::exception_ptr error G10_GUARDED_BY(mutex);

  /// Claims and runs chunks until none are left.
  void drain() G10_EXCLUDES(mutex) {
    while (true) {
      const std::size_t chunk =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunk_count) return;
      run_chunk(chunk);
    }
  }

  void run_chunk(std::size_t chunk) G10_EXCLUDES(mutex) {
    const std::size_t begin = chunk * grain;
    const std::size_t end = std::min(n, begin + grain);
    std::exception_ptr caught;
    try {
      for (std::size_t i = begin; i < end; ++i) (*body)(i);
    } catch (...) {
      caught = std::current_exception();
    }
    MutexLock lock(mutex);
    if (caught && (!error || chunk < error_chunk)) {
      error = caught;
      error_chunk = chunk;
    }
    if (++chunks_done == chunk_count) done_cv.notify_all();
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (workers_.empty() || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto state = std::make_shared<ForLoopState>();
  state->n = n;
  state->grain = grain;
  state->chunk_count = (n + grain - 1) / grain;
  state->body = &body;

  // One helper task per worker (capped by the chunk count); the caller
  // drains too, so completion never depends on a task being picked up —
  // which is why a full queue can simply drop helpers (try_submit) instead
  // of blocking, keeping nested fan-outs deadlock-free.
  const std::size_t helpers =
      std::min(workers_.size(), state->chunk_count - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    if (!try_submit([state] { state->drain(); })) break;
  }
  state->drain();

  MutexLock lock(state->mutex);
  while (state->chunks_done != state->chunk_count) {
    state->done_cv.wait(state->mutex);
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace g10
