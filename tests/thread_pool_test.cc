#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

/// \file
/// Concurrency regression suite for util::ThreadPool, split out of
/// util_test.cc so the TSan smoke job hammers these paths every push. The
/// load-bearing scenario is several threads driving ParallelFor on one
/// shared pool at once — the serving stack's shape (N scheduler workers,
/// one shared GEMM pool). Completion must be tracked by a per-call latch:
/// the historical bug was a pool-wide "all idle" wait that returned a
/// caller early (or never) when strangers kept the pool busy. The
/// ParallelForDispatch cases pin which calls reach the pool at all.

namespace dial::util {
namespace {

TEST(ThreadPoolConcurrency, ConcurrentParallelForSubmitters) {
  ThreadPool pool(2);
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 50;
  constexpr size_t kItems = 64;
  std::vector<std::thread> submitters;
  std::vector<std::atomic<int>> failures(kSubmitters);
  for (auto& f : failures) f = 0;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&pool, &failures, t] {
      std::vector<int> hits(kItems);
      for (int round = 0; round < kRounds; ++round) {
        std::fill(hits.begin(), hits.end(), 0);
        ParallelFor(&pool, kItems, [&hits](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) ++hits[i];
        });
        // ParallelFor returned: every one of *this caller's* items must be
        // done exactly once, no matter what the other submitters are doing.
        for (size_t i = 0; i < kItems; ++i) {
          if (hits[i] != 1) ++failures[t];
        }
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (int t = 0; t < kSubmitters; ++t) EXPECT_EQ(failures[t].load(), 0);
}

TEST(ThreadPoolConcurrency, ParallelForConcurrentWithRawSubmits) {
  ThreadPool pool(2);
  std::atomic<bool> stop{false};
  std::atomic<int> stray_tasks{0};
  std::atomic<int> stray_pending{0};
  // A "stranger" keeps the pool non-idle; ParallelFor callers must still
  // return as soon as their own chunks finish. Cap the stranger's backlog —
  // an unbounded flood starves everyone on a loaded single-core machine.
  std::thread stranger([&] {
    while (!stop.load()) {
      if (stray_pending.load() < 16) {
        ++stray_pending;
        pool.Submit([&stray_tasks, &stray_pending] {
          ++stray_tasks;
          --stray_pending;
        });
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> mine{0};
    ParallelFor(&pool, 32, [&mine](size_t begin, size_t end) {
      mine += static_cast<int>(end - begin);
    });
    ASSERT_EQ(mine.load(), 32);
  }
  stop = true;
  stranger.join();
  pool.Wait();  // sole remaining owner: drains the stranger's leftovers
  EXPECT_GT(stray_tasks.load(), 0);
}

TEST(ThreadPoolConcurrency, SubmitFromManyThreads) {
  ThreadPool pool(2);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) pool.Submit([&count] { ++count; });
    });
  }
  for (auto& p : producers) p.join();
  pool.Wait();
  EXPECT_EQ(count.load(), kThreads * kPerThread);
}

TEST(ThreadPoolConcurrency, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  ParallelFor(&pool, 8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ++outer;
      // A worker submitting subtasks and waiting would deadlock once every
      // worker parks; nested calls must degrade to inline execution.
      EXPECT_TRUE(pool.InWorkerThread());
      ParallelFor(&pool, 4, [&inner](size_t b, size_t e) {
        inner += static_cast<int>(e - b);
      });
    }
  });
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8 * 4);
}

TEST(ThreadPoolConcurrency, WaitIdempotentAndReusable) {
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i) pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 50);
    pool.Wait();  // nothing outstanding: must return immediately
  }
}

TEST(ThreadPoolConcurrency, DestructorJoinsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.Submit([&count] { ++count; });
    // No Wait(): destruction alone must not abandon queued tasks' threads
    // mid-flight (workers join after draining or observing shutdown).
  }
  // After the destructor, no worker may touch `count` again; read is safe.
  EXPECT_LE(count.load(), 100);
}

TEST(ThreadPoolConcurrency, InWorkerThreadFalseOutside) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.InWorkerThread());
}

// The dispatch rule: a call too small to repay the pool's hand-off runs as
// one fn(0, n) on the calling thread and hands the pool no task. Counters
// are atomic so a broken rule fails these checks instead of racing.
void ExpectRunsOnCallerWithoutSubmitting(size_t n, size_t work) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::atomic<int> whole_range_on_caller{0};
  ParallelFor(
      &pool, n,
      [&](size_t begin, size_t end) {
        ++calls;
        if (begin == 0 && end == n && std::this_thread::get_id() == caller) {
          ++whole_range_on_caller;
        }
      },
      work);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(whole_range_on_caller.load(), 1);
  EXPECT_EQ(pool.tasks_submitted(), 0u);
}

TEST(ParallelForDispatch, SingleItemRunsOnCallerWithoutSubmitting) {
  ExpectRunsOnCallerWithoutSubmitting(1, SIZE_MAX);
}

TEST(ParallelForDispatch, WorkBelowCutoffRunsOnCallerWithoutSubmitting) {
  ExpectRunsOnCallerWithoutSubmitting(64, kMinParallelWork - 1);
}

TEST(ParallelForDispatch, WorkAtCutoffOrUnestimatedReachesWorkers) {
  ThreadPool pool(2);
  for (const size_t work : {kMinParallelWork, size_t{SIZE_MAX}}) {
    const size_t submitted_before = pool.tasks_submitted();
    std::atomic<int> worker_chunks{0};
    std::atomic<size_t> covered{0};
    ParallelFor(
        &pool, 64,
        [&](size_t begin, size_t end) {
          if (pool.InWorkerThread()) ++worker_chunks;
          covered += end - begin;
        },
        work);
    EXPECT_GT(worker_chunks.load(), 0) << "work " << work;
    EXPECT_EQ(covered.load(), 64u) << "work " << work;
    EXPECT_GT(pool.tasks_submitted(), submitted_before) << "work " << work;
  }
}

}  // namespace
}  // namespace dial::util
