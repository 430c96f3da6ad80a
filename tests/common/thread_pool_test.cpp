#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace g10 {
namespace {

TEST(ThreadPoolTest, ResolveThreadsExplicitRequestWins) {
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3u);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
}

TEST(ThreadPoolTest, ResolveThreadsReadsEnvironment) {
  ::setenv("G10_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 5u);
  // An explicit request still beats the environment.
  EXPECT_EQ(ThreadPool::resolve_threads(2), 2u);
  // Garbage and non-positive values fall through to hardware concurrency.
  ::setenv("G10_THREADS", "banana", 1);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  ::setenv("G10_THREADS", "-4", 1);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  ::unsetenv("G10_THREADS");
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
}

TEST(ThreadPoolTest, SingleThreadPoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  int calls = 0;
  pool.submit([&] { ++calls; });  // runs inline with no workers
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(pool.try_submit([&] { ++calls; }));
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1000}}) {
    for (const std::size_t grain : {std::size_t{1}, std::size_t{3},
                                    std::size_t{16}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, grain, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, RethrowsLowestIndexedChunkException) {
  ThreadPool pool(4);
  // Two failing iterations; the lower index must win regardless of which
  // worker reaches its chunk first.
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      pool.parallel_for(100, 1, [&](std::size_t i) {
        if (i == 17 || i == 83) {
          throw std::runtime_error("bad " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "bad 17");
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForMakesProgress) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(8, 1, [&](std::size_t outer) {
    pool.parallel_for(32, 4, [&](std::size_t inner) {
      sum += static_cast<long>(outer * 100 + inner);
    });
  });
  long expected = 0;
  for (long outer = 0; outer < 8; ++outer) {
    for (long inner = 0; inner < 32; ++inner) expected += outer * 100 + inner;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, SubmitAndWaitIdleRunsEverything) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&] { ++done; });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPoolTest, TinyQueueCapacityStillCompletesAllWork) {
  // submit() must block (not drop) at the bound, so nothing is lost.
  ThreadPool pool(ThreadPool::Options{4, 2});
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { ++done; });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, ParallelForResultsMatchSerialBitForBit) {
  // Floating-point per-index results must be identical to the serial loop
  // because each index is computed independently and placed by index.
  const auto value = [](std::size_t i) {
    double x = 1.0;
    for (std::size_t k = 0; k < i % 17; ++k) x = x * 1.000001 + 0.5;
    return x;
  };
  std::vector<double> serial(500);
  for (std::size_t i = 0; i < serial.size(); ++i) serial[i] = value(i);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<double> parallel(serial.size());
    pool.parallel_for(parallel.size(), 7,
                      [&](std::size_t i) { parallel[i] = value(i); });
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace g10
