#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>

namespace amped {

namespace {

// True on threads currently executing a pool task; parallel_for uses it to
// run nested loops inline instead of deadlocking on wait_idle.
thread_local bool t_in_pool_worker = false;

std::size_t env_thread_count() {
  const char* env = std::getenv("AMPED_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : 0;
}

std::mutex& global_pool_mutex() {
  static std::mutex m;
  return m;
}

std::size_t& parallelism_override() {
  static std::size_t n = 0;
  return n;
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || t_in_pool_worker || workers_.size() == 1) {
    // One index, a nested call from a worker, or a 1-thread pool:
    // distributing would add queue traffic with no extra concurrency.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Chunk so that each worker gets a contiguous range; avoids per-index
  // queue traffic for large n.
  const std::size_t chunks = std::min(n, workers_.size() * 4);
  const std::size_t per = (n + chunks - 1) / chunks;
  // Completion of this call's chunks alone. The last chunk notifies under
  // the lock, so the waiter cannot see zero and destroy these before the
  // notifying task is done with them.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t pending = (n + per - 1) / per;
  for (std::size_t lo = 0; lo < n; lo += per) {
    const std::size_t hi = std::min(n, lo + per);
    submit([&, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
      std::lock_guard lock(done_mutex);
      if (--pending == 0) done_cv.notify_all();
    });
  }
  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return pending == 0; });
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {

// Caller must hold global_pool_mutex().
std::size_t resolved_parallelism_locked() {
  if (parallelism_override() > 0) return parallelism_override();
  const std::size_t env = env_thread_count();
  if (env > 0) return env;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool& global_thread_pool() {
  std::lock_guard lock(global_pool_mutex());
  auto& pool = global_pool_slot();
  if (!pool) {
    pool = std::make_unique<ThreadPool>(resolved_parallelism_locked());
  }
  return *pool;
}

std::size_t host_parallelism() {
  std::lock_guard lock(global_pool_mutex());
  return resolved_parallelism_locked();
}

void set_host_parallelism(std::size_t num_threads) {
  std::lock_guard lock(global_pool_mutex());
  parallelism_override() = num_threads;
  global_pool_slot().reset();  // rebuilt at the new size on next use
}

}  // namespace amped
