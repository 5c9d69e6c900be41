// Fixed-size thread pool with a parallel_for helper.
//
// The simulator's numerical execution is independent per simulated GPU, so
// device loops can run concurrently when cores are available; the ALS
// factor update runs its fixed row blocks here too. On a 1-core host the
// pool degrades gracefully to near-serial execution. Numerical results
// never depend on the core count: every parallel section either writes
// disjoint outputs or reduces fixed-size partials in a fixed order. Time
// does: under the simulated backend it comes from the cost model, under
// the host backend (exec/host_backend.hpp) it is measured wall clock.
//
// The process-wide pool behind global_thread_pool() is what the execution
// engine dispatches on (per-GPU shard loops, per-mode format builds). Its
// size resolves, in priority order: set_host_parallelism() override →
// AMPED_THREADS environment variable → hardware concurrency.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace amped {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a task; tasks may not throw (they run under noexcept workers).
  void submit(std::function<void()> task);

  // Block until every submitted task has finished.
  void wait_idle();

  // Run fn(i) for i in [0, n), distributing across the pool, and wait for
  // those calls only (not for unrelated tasks other threads submitted).
  // fn must not throw. Runs inline on the calling thread when n == 1,
  // when the pool has one worker, or when called from inside a pool task
  // (a nested distribution could wait on workers that are all blocked in
  // the caller's own in-flight tasks).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

// The shared pool host-parallel sections dispatch on; constructed on first
// use with host_parallelism() workers.
ThreadPool& global_thread_pool();

// Worker count the global pool will use (override → AMPED_THREADS → cores).
// A value of 1 makes every host-parallel section run serially.
std::size_t host_parallelism();

// Overrides the global pool size (0 = back to AMPED_THREADS / hardware
// default), tearing down any existing idle pool so the next use rebuilds
// at the new size. Call at startup or between runs — not concurrently with
// work executing on the pool.
void set_host_parallelism(std::size_t num_threads);

}  // namespace amped
