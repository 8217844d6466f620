#include "util/thread_pool.h"

#include <algorithm>
#include <memory>

namespace dial::util {

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  worker_ids_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
    worker_ids_.push_back(workers_.back().get_id());
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  if (workers_.empty()) {
    fn();
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(fn));
    ++in_flight_;
    ++submitted_;
  }
  task_ready_.notify_one();
}

size_t ThreadPool::tasks_submitted() const {
  std::unique_lock<std::mutex> lock(mu_);
  return submitted_;
}

void ThreadPool::Wait() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

bool ThreadPool::InWorkerThread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread::id& id : worker_ids_) {
    if (id == self) return true;
  }
  return false;
}

namespace internal {

void ParallelForPooled(ThreadPool* pool, size_t n,
                       const std::function<void(size_t, size_t)>& fn) {
  // Per-call completion latch: waiting on the pool-global in_flight_ counter
  // (ThreadPool::Wait) is wrong once several threads share the pool — a
  // caller would block on *everyone's* tasks, and under a submitter that
  // never goes idle (the serve dispatcher) it would never return at all.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
  };
  const size_t chunks = std::min(n, pool->num_threads() * 4);
  const size_t chunk = (n + chunks - 1) / chunks;
  auto latch = std::make_shared<Latch>();
  latch->remaining = (n + chunk - 1) / chunk;
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(n, begin + chunk);
    pool->Submit([&fn, latch, begin, end] {
      fn(begin, end);
      std::unique_lock<std::mutex> lock(latch->mu);
      if (--latch->remaining == 0) latch->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->cv.wait(lock, [&latch] { return latch->remaining == 0; });
}

}  // namespace internal

}  // namespace dial::util
