// End-to-end observability of the host-parallel backend: the wall-clock
// trace it records must cover every kernel task of the plan, present one
// Chrome-trace row per lane/copy-engine thread, and carry the exact same
// kernel labels as the simulator's trace of the same plan — the contract
// that lets a sim timeline and a host timeline render side-by-side in
// Perfetto. Also covers the capacity-overflow surfacing (dropped events
// land in the export instead of silently truncating).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "exec/backend.hpp"
#include "exec/plan.hpp"
#include "exec/scheduler.hpp"
#include "sim/trace.hpp"
#include "tensor/generator.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

class HostParallelismEnv : public ::testing::Environment {
 public:
  void SetUp() override { set_host_parallelism(4); }
  void TearDown() override { set_host_parallelism(0); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new HostParallelismEnv);

AmpedTensor make_test_tensor(int gpus) {
  GeneratorOptions opt;
  opt.dims = {256, 192, 128};
  opt.nnz = 20000;
  opt.zipf_exponents = {0.8, 0.5, 0.5};
  opt.seed = 901;
  AmpedBuildOptions build;
  build.num_gpus = gpus;
  return AmpedTensor::build(generate_random(opt), build);
}

// Lowers mode 0 under `options` and runs it on the requested backend
// with `trace` attached, so tests can compare the trace against the
// plan's actual task list.
exec::Plan run_traced(const AmpedTensor& tensor, const FactorSet& factors,
                      MttkrpOptions options, exec::ExecBackend backend,
                      sim::TraceLog* trace, int gpus) {
  auto platform = sim::make_default_platform(gpus, 1000.0);
  platform.attach_trace(trace);
  DenseMatrix out(tensor.dims()[0], factors.rank());
  out.set_zero();
  options.backend = backend;
  const exec::ModeLowerInput input{
      platform, tensor, 0, factors, out, options,
      resolve_mttkrp_profile(options, tensor, 0, platform, factors.rank())};
  exec::Plan plan = exec::make_scheduler(options)->lower(input);
  exec::PlanExecutor executor(platform, backend);
  executor.run(plan);
  return plan;
}

std::multiset<std::string> kernel_labels(const sim::TraceLog& trace,
                                         int device) {
  std::multiset<std::string> labels;
  for (const auto& e : trace.events()) {
    if (e.phase == sim::Phase::kCompute && e.device == device) {
      labels.insert(e.label);
    }
  }
  return labels;
}

TEST(ObservabilityTest, HostTraceCoversEveryKernelTask) {
  const int gpus = 2;
  auto tensor = make_test_tensor(gpus);
  Rng rng(902);
  FactorSet factors(tensor.dims(), 8, rng);

  for (auto policy :
       {SchedulingPolicy::kStaticGreedy, SchedulingPolicy::kDynamicQueue}) {
    sim::TraceLog trace;
    MttkrpOptions options;
    options.policy = policy;
    const auto plan = run_traced(tensor, factors, options,
                                 exec::ExecBackend::kHostParallel, &trace,
                                 gpus);
    std::size_t kernel_tasks = 0;
    for (const auto& t : plan.tasks) {
      if (t.kind == exec::TaskKind::kKernel) ++kernel_tasks;
    }
    ASSERT_GT(kernel_tasks, 0u);
    std::size_t compute_events = 0;
    for (const auto& e : trace.events()) {
      if (e.phase == sim::Phase::kCompute && e.device >= 0) {
        ++compute_events;
        // Wall-clock sanity: measured on a real thread, so the event
        // sits at a non-negative offset with a real duration.
        EXPECT_GE(e.start_s, 0.0);
        EXPECT_GT(e.duration_s, 0.0);
        EXPECT_LE(e.start_s + e.duration_s, trace.host_now() + 1e-6);
      }
    }
    EXPECT_EQ(compute_events, kernel_tasks) << to_string(policy);
    EXPECT_EQ(trace.dropped(), 0u);
  }
}

TEST(ObservabilityTest, HostTraceHasOneRowPerLaneThread) {
  const int gpus = 2;
  auto tensor = make_test_tensor(gpus);
  Rng rng(903);
  FactorSet factors(tensor.dims(), 8, rng);

  // Pipelined lanes split work across a compute thread and a copy
  // thread per GPU; the export must name one row for each.
  sim::TraceLog trace;
  MttkrpOptions options;
  options.pipelined_streaming = true;
  run_traced(tensor, factors, options, exec::ExecBackend::kHostParallel,
             &trace, gpus);

  std::ostringstream out;
  trace.write_chrome_json(out);
  const std::string json = out.str();
  for (int g = 0; g < gpus; ++g) {
    const std::string row = "\"name\":\"gpu" + std::to_string(g) + "\"";
    EXPECT_NE(json.find(row), std::string::npos) << "missing row gpu" << g;
  }
  // At least one copy-engine row: pipelined fetch/h2d run on engine 1.
  EXPECT_NE(json.find("\"name\":\"gpu0 copy\""), std::string::npos);
  // Barriers/all-gathers run on the coordinating host thread.
  EXPECT_NE(json.find("\"name\":\"host\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
}

TEST(ObservabilityTest, SimAndHostKernelLabelsMatchPerDevice) {
  const int gpus = 2;
  auto tensor = make_test_tensor(gpus);
  Rng rng(904);
  FactorSet factors(tensor.dims(), 8, rng);

  // Static assignment pins every kernel to the same device under both
  // backends, so the per-device label multisets must match exactly —
  // the "same rows, same labels" side-by-side contract.
  sim::TraceLog sim_trace, host_trace;
  MttkrpOptions options;
  run_traced(tensor, factors, options, exec::ExecBackend::kSimulated,
             &sim_trace, gpus);
  run_traced(tensor, factors, options, exec::ExecBackend::kHostParallel,
             &host_trace, gpus);

  for (int g = 0; g < gpus; ++g) {
    const auto sim_labels = kernel_labels(sim_trace, g);
    const auto host_labels = kernel_labels(host_trace, g);
    EXPECT_EQ(sim_labels, host_labels) << "device " << g;
    EXPECT_FALSE(host_labels.empty()) << "device " << g;
    for (const auto& label : host_labels) {
      EXPECT_EQ(label.rfind("grid mode", 0), 0u) << label;
    }
  }
}

// Every ALS factor update is one als.update_seconds sample, and the
// histogram is part of the metrics snapshot --report-json embeds.
TEST(ObservabilityTest, AlsUpdateLatencyRecordedPerModePerIteration) {
  const int gpus = 2;
  auto tensor = make_test_tensor(gpus);
  auto platform = sim::make_default_platform(gpus);
  CpdOptions opt;
  opt.rank = 8;
  opt.max_iterations = 3;
  opt.tolerance = 0.0;
  opt.mttkrp.backend = exec::ExecBackend::kHostParallel;
  const metrics::Histogram& updates = metrics::histogram("als.update_seconds");
  const std::uint64_t before = updates.count();
  const CpdResult result = cp_als(platform, tensor, opt);
  EXPECT_EQ(updates.count() - before,
            result.iterations * tensor.num_modes());
  EXPECT_GT(updates.sum_seconds(), 0.0);
  EXPECT_NE(metrics::Registry::global().snapshot_json().find(
                "\"als.update_seconds\""),
            std::string::npos);
}

TEST(ObservabilityTest, CapacityOverflowIsSurfacedInExport) {
  const int gpus = 2;
  auto tensor = make_test_tensor(gpus);
  Rng rng(905);
  FactorSet factors(tensor.dims(), 8, rng);

  // A 4-event log cannot hold a whole plan: the overflow must be
  // counted and exported, not silently truncated.
  sim::TraceLog trace(4);
  MttkrpOptions options;
  run_traced(tensor, factors, options, exec::ExecBackend::kHostParallel,
             &trace, gpus);
  EXPECT_EQ(trace.events().size(), 4u);
  EXPECT_GT(trace.dropped(), 0u);

  std::ostringstream out;
  trace.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"dropped_events\":" +
                      std::to_string(trace.dropped())),
            std::string::npos);
}

}  // namespace
}  // namespace amped
