#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/mttkrp.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

// Restores the default pool configuration however a test exits.
class ScopedHostParallelism {
 public:
  explicit ScopedHostParallelism(std::size_t n) { set_host_parallelism(n); }
  ~ScopedHostParallelism() { set_host_parallelism(0); }
};

TEST(ThreadPoolStressTest, ConcurrentSubmittersAllTasksRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 8;
  constexpr int kTasksPer = 250;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksPer; ++i) {
        pool.submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksPer);
}

TEST(ThreadPoolStressTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // A nested parallel_for on the same pool must not wait on the queue
    // (the outer task is in flight, so wait_idle would never return).
    pool.parallel_for(100, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 100);
}

TEST(ThreadPoolStressTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No wait_idle: shutdown itself must finish every queued task without
    // throwing or losing work.
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolStressTest, SingleIndexParallelForRunsInlineOnCaller) {
  ThreadPool pool(4);
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolStressTest, ParallelForWaitsOnlyForItsOwnTasks) {
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  // An unrelated task holds one worker until released. parallel_for must
  // return once its own indices are done (on the other worker) instead of
  // waiting for the whole pool to go idle.
  pool.submit([&] {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return release; });
  });
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 16);
  {
    std::lock_guard lock(m);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
}

TEST(GlobalThreadPoolTest, OverrideControlsPoolSize) {
  ScopedHostParallelism scoped(3);
  EXPECT_EQ(host_parallelism(), 3u);
  EXPECT_EQ(global_thread_pool().size(), 3u);
}

// Parallel static-policy MTTKRP must be bit-identical to a serial run:
// GPUs own disjoint output rows and each GPU's element order is unchanged,
// so not a single rounding difference is tolerated.
class ParallelDeterminism
    : public ::testing::TestWithParam<SchedulingPolicy> {};

TEST_P(ParallelDeterminism, AllModesBitIdenticalToSerial) {
  GeneratorOptions gen;
  gen.dims = {96, 64, 48};
  gen.nnz = 6000;
  gen.zipf_exponents = {0.8, 0.0, 0.4};
  gen.seed = 11;
  const auto t = generate_random(gen);
  Rng rng(12);
  const FactorSet factors(t.dims(), 16, rng);

  AmpedBuildOptions build;
  build.num_gpus = 4;
  MttkrpOptions options;
  options.policy = GetParam();

  auto run = [&](std::size_t threads) {
    set_host_parallelism(threads);
    const auto tensor = AmpedTensor::build(t, build);
    auto platform = sim::make_default_platform(build.num_gpus);
    std::vector<DenseMatrix> outputs;
    auto report = mttkrp_all_modes(platform, tensor, factors, outputs,
                                   options);
    return std::make_pair(std::move(outputs), report.total_seconds);
  };

  auto [serial_out, serial_seconds] = run(1);
  auto [parallel_out, parallel_seconds] = run(4);
  set_host_parallelism(0);

  ASSERT_EQ(serial_out.size(), parallel_out.size());
  for (std::size_t d = 0; d < serial_out.size(); ++d) {
    const auto a = serial_out[d].data();
    const auto b = parallel_out[d].data();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)), 0)
        << "mode " << d << " diverged";
  }
  // Simulated clocks are per-device, so the modelled time must also agree
  // exactly.
  EXPECT_EQ(serial_seconds, parallel_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    StaticPolicies, ParallelDeterminism,
    ::testing::Values(SchedulingPolicy::kStaticGreedy,
                      SchedulingPolicy::kContiguous,
                      SchedulingPolicy::kWeightedStatic),
    [](const ::testing::TestParamInfo<SchedulingPolicy>& param) {
      std::string name = to_string(param.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace amped
