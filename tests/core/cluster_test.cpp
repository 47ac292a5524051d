// Multi-KNL data parallelism (paper Section V extension).
#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "models/models.hpp"

namespace opsched {
namespace {

GraphBuilderFn dcgan_builder() {
  return [](std::int64_t batch) { return build_dcgan(batch); };
}

TEST(Cluster, ParameterBytesSumOptimizerInputs) {
  GraphBuilder gb;
  const NodeId src = gb.source(OpKind::kInputConversion, "in",
                               TensorShape{4, 4});
  gb.op(OpKind::kApplyAdam, "w1", {src}, TensorShape{100, 10}, TensorShape{},
        TensorShape{100, 10});
  gb.op(OpKind::kApplyGradientDescent, "w2", {src}, TensorShape{50},
        TensorShape{}, TensorShape{50});
  gb.op(OpKind::kRelu, "act", {src}, TensorShape{100}, TensorShape{},
        TensorShape{100});
  const Graph g = gb.take();
  EXPECT_DOUBLE_EQ(model_parameter_bytes(g), (1000 + 50) * 4.0);
}

TEST(Cluster, ValidatesWorkerCount) {
  ClusterOptions opt;
  opt.num_workers = 0;
  EXPECT_THROW(DataParallelCluster(MachineSpec::knl(), opt),
               std::invalid_argument);
}

TEST(Cluster, RequiresProfilingBeforeStep) {
  ClusterOptions opt;
  opt.num_workers = 2;
  DataParallelCluster cluster(MachineSpec::knl(), opt);
  EXPECT_THROW(cluster.run_step(), std::logic_error);
}

TEST(Cluster, AllReduceCostModel) {
  ClusterOptions opt;
  opt.num_workers = 4;
  DataParallelCluster cluster(MachineSpec::knl(), opt);
  // Ring all-reduce: 2*(W-1)/W * bytes/bw + 2*(W-1)*latency.
  const double bytes = 100e6;
  const double expect =
      2.0 * 3.0 / 4.0 * bytes / 10e9 * 1e3 + 2.0 * 3.0 * 0.02;
  EXPECT_NEAR(cluster.allreduce_ms(bytes), expect, 1e-9);

  ClusterOptions single = opt;
  single.num_workers = 1;
  DataParallelCluster one(MachineSpec::knl(), single);
  EXPECT_DOUBLE_EQ(one.allreduce_ms(bytes), 0.0);
}

TEST(Cluster, ShardingSplitsBatchAndScalesCompute) {
  ClusterOptions opt2;
  opt2.num_workers = 2;
  DataParallelCluster two(MachineSpec::knl(), opt2);
  two.profile(dcgan_builder(), 128);
  const ClusterStepResult r2 = two.run_step();

  ClusterOptions opt1;
  opt1.num_workers = 1;
  DataParallelCluster one(MachineSpec::knl(), opt1);
  one.profile(dcgan_builder(), 128);
  const ClusterStepResult r1 = one.run_step();

  ASSERT_EQ(r2.worker_ms.size(), 2u);
  ASSERT_EQ(r1.worker_ms.size(), 1u);
  // Two half-batch workers are faster per step than one full-batch worker.
  EXPECT_LT(r2.compute_ms, r1.compute_ms);
  EXPECT_GT(r2.allreduce_ms, 0.0);
  EXPECT_DOUBLE_EQ(r2.time_ms, r2.compute_ms + r2.allreduce_ms);
}

TEST(Cluster, WorkersAreDeterministicallyIdentical) {
  ClusterOptions opt;
  opt.num_workers = 4;
  DataParallelCluster cluster(MachineSpec::knl(), opt);
  cluster.profile(dcgan_builder(), 64);
  const ClusterStepResult r = cluster.run_step();
  for (double t : r.worker_ms) {
    EXPECT_DOUBLE_EQ(t, r.worker_ms.front());  // same shard, same schedule
  }
}

TEST(Cluster, AdaptiveBeatsRecommendationPerWorker) {
  // The paper's Section V point: per-worker runtime gains carry over
  // unchanged under data parallelism.
  ClusterOptions opt;
  opt.num_workers = 2;
  DataParallelCluster cluster(MachineSpec::knl(), opt);
  cluster.profile(dcgan_builder(), 128);
  const ClusterStepResult rec = cluster.run_step_recommendation();
  cluster.run_step();  // warm caches
  const ClusterStepResult adaptive = cluster.run_step();
  EXPECT_LT(adaptive.time_ms, rec.time_ms);
}

}  // namespace
}  // namespace opsched
