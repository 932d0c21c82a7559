/// \file thread_pool.h
/// \brief A fixed-size, work-stealing-free thread pool shared by the MPP
/// scatter path. The paper's CN fans a query out to all DNs *concurrently*
/// (Fig. 1: "they exchange data on-demand and execute the query in
/// parallel"); the pool is what makes that true on the wall clock, while
/// the latency model (max-over-DNs, see cluster/distributed_plan.h) makes
/// it true in simulated time. One central FIFO queue, N worker threads:
/// simple, deterministic to reason about, and sufficient for shard-grained
/// tasks (work stealing pays off for fine-grained irregular tasks, which
/// scatter is not).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ofi::common {

/// \brief Fixed-size thread pool. Threads start in the constructor and join
/// in the destructor; tasks run in FIFO order per the central queue.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (unbounded queue).
  void Submit(std::function<void()> task);

  /// Runs fn(0..n-1) across the pool and blocks until every call returned.
  /// fn must be safe to invoke concurrently with distinct indices. n <= 1
  /// runs inline on the caller (no queue round trip). Must not be called
  /// from inside a pool task (a worker waiting on workers can deadlock once
  /// the queue backs up).
  void ParallelFor(int n, const std::function<void(int)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// The process-wide shared pool, sized to the hardware concurrency
  /// (minimum 2 so parallelism is exercised even on 1-core CI hosts).
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ofi::common
