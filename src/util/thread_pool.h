#ifndef DIAL_UTIL_THREAD_POOL_H_
#define DIAL_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

/// \file
/// A small fixed-size worker pool plus a `ParallelFor` helper used for
/// data-parallel gradient accumulation and batched index probes. On this
/// project's reference hardware (2 cores) parallelism is a modest win; all
/// callers also work with `num_threads == 0` (inline execution).
///
/// Handing a call to the pool costs a queue push, a worker wake-up and a
/// latch wait: bench_la_micro's `gemm_pooled_vs_inline` records for the
/// 16-row GEMMs read 12-19 us pooled against 0.3-6 us inline on a 4-core
/// AVX-512 host. So `ParallelFor` only fans out calls that carry enough
/// work to repay it (see `kMinParallelWork`).

namespace dial::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers. `num_threads == 0` means every Submit
  /// runs inline on the caller thread (useful for deterministic tests).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; returns immediately (or runs inline if no workers).
  void Submit(std::function<void()> fn);

  /// Tasks queued to the workers since construction (inline Submits on a
  /// worker-less pool are not counted). Read under the pool's mutex, so a
  /// test can count how many tasks a call handed to the pool.
  size_t tasks_submitted() const;

  /// Blocks until the pool is fully drained (no queued or running tasks from
  /// *any* submitter). Only meaningful for a caller that owns all outstanding
  /// work — with concurrent submitters this waits on strangers' tasks and may
  /// never return if the pool never goes idle. `ParallelFor` therefore uses a
  /// per-call completion latch instead of this.
  void Wait();

  /// True when the calling thread is one of this pool's workers. Used by
  /// `ParallelFor` to degrade to inline execution on nested calls — a worker
  /// that Submit()s subtasks and then Wait()s would deadlock once every
  /// worker is parked in Wait().
  bool InWorkerThread() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::vector<std::thread::id> worker_ids_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  size_t submitted_ = 0;
  bool shutdown_ = false;
};

/// Work (multiply-adds, or a comparable per-element cost) below which
/// `ParallelFor` runs inline even with a pool. Only the la::kernels GEMM
/// entry points pass an estimate, so NN, TN and NT share it. 2^19 is where
/// NT, the first of them to gain from the pool, crosses in bench_la_micro's
/// sweep of isolated row-split GEMMs (`pooled_over_inline` in BENCH_la.json,
/// 2 workers, a 4-core AVX-512 host, two runs): pooled over inline time
/// read 1.14-1.46x at 2^18 multiply-adds and 0.82-1.04x at 2^19. NN does
/// some 4x the multiply-adds per second of NT and crosses later: 1.64-1.84x
/// at 2^19, 1.07-1.14x at 2^20 and 0.81-0.84x at 2^21, so an NN GEMM
/// between 2^19 and 2^21 still runs pooled at a loss of 2-7 us a call. TN
/// runs NN's tile over a strided a and is not in the sweep. Training tapes
/// carry no pool and always run inline. The inference engine's GEMMs over a
/// full pack (FFN 480x64x32, above the cutoff; CLS-mode K/V 480x32x32,
/// below it) reach the pool only when a call holds a single pack: packs of
/// a multi-pack call run on workers, where nested calls run inline.
inline constexpr size_t kMinParallelWork = size_t{1} << 19;

namespace internal {
/// ParallelFor's pooled path: runs [0, n) in chunks on the pool's workers.
void ParallelForPooled(ThreadPool* pool, size_t n,
                       const std::function<void(size_t, size_t)>& fn);
}  // namespace internal

/// Splits [0, n) into contiguous chunks and runs `fn(begin, end)` on the
/// pool; blocks until complete. Runs `fn(0, n)` inline on the caller with a
/// null pool, with fewer than two workers, when `n == 1`, when `work` (the
/// caller's estimate of the whole call's cost, e.g. m*n*k for a GEMM) is
/// below `kMinParallelWork`, or when called from one of the pool's own
/// workers (nested data-parallelism degrades gracefully instead of
/// deadlocking). Callers that pass no estimate always fan out. Chunk
/// boundaries never change results for callers whose iterations are
/// independent, which is what the index layer's determinism guarantee
/// (threaded Search bit-identical to inline) rests on.
///
/// Safe with concurrent submitters: completion is tracked by a per-call
/// latch, so each caller returns exactly when its own chunks finish, even
/// while other threads keep the pool busy.
///
/// The inline path calls `fn` directly; only the pooled path wraps it in a
/// `std::function` (by reference), so an inline call allocates nothing.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, const Fn& fn,
                 size_t work = SIZE_MAX) {
  if (n == 0) return;
  if (n == 1 || work < kMinParallelWork || pool == nullptr ||
      pool->num_threads() <= 1 || pool->InWorkerThread()) {
    fn(0, n);
    return;
  }
  internal::ParallelForPooled(pool, n, std::cref(fn));
}

}  // namespace dial::util

#endif  // DIAL_UTIL_THREAD_POOL_H_
