#include "bp/parallel_bp.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "graph/generators.h"

namespace dmlscale::bp {
namespace {

TEST(ParallelBpTest, MatchesSequentialExactly) {
  auto g = graph::Grid2d(6, 6).value();
  Pcg32 rng(1);
  auto mrf = PairwiseMrf::Random(&g, 2, 0.4, &rng).value();

  LoopyBp sequential(&mrf);
  BpRunResult seq_run =
      sequential.Run({.max_iterations = 40, .tolerance = 1e-9});

  LoopyBp parallel(&mrf);
  Pcg32 part_rng(2);
  auto partition = graph::RandomPartition(36, 4, &part_rng).value();
  auto stats = RunParallelBp(&parallel, partition,
                             {.max_iterations = 40, .tolerance = 1e-9}, 4);
  ASSERT_TRUE(stats.ok());

  EXPECT_EQ(stats->run.iterations, seq_run.iterations);
  EXPECT_EQ(stats->run.converged, seq_run.converged);
  auto seq_beliefs = sequential.Beliefs();
  auto par_beliefs = parallel.Beliefs();
  ASSERT_EQ(seq_beliefs.size(), par_beliefs.size());
  for (size_t i = 0; i < seq_beliefs.size(); ++i) {
    // Bit-identical: the parallel schedule reads only previous-superstep
    // messages, exactly like the sequential synchronous schedule.
    EXPECT_DOUBLE_EQ(par_beliefs[i], seq_beliefs[i]) << i;
  }
}

TEST(ParallelBpTest, WorkerCountDoesNotChangeResult) {
  auto g = graph::Grid2d(5, 5).value();
  Pcg32 rng(3);
  auto mrf = PairwiseMrf::Random(&g, 2, 0.5, &rng).value();

  std::vector<double> reference;
  for (int workers : {1, 2, 5, 10}) {
    LoopyBp solver(&mrf);
    Pcg32 part_rng(static_cast<uint64_t>(workers));
    auto partition = graph::RandomPartition(25, workers, &part_rng).value();
    auto stats = RunParallelBp(&solver, partition,
                               {.max_iterations = 30, .tolerance = 1e-8},
                               /*num_threads=*/2);
    ASSERT_TRUE(stats.ok());
    auto beliefs = solver.Beliefs();
    if (reference.empty()) {
      reference = beliefs;
    } else {
      for (size_t i = 0; i < beliefs.size(); ++i) {
        EXPECT_DOUBLE_EQ(beliefs[i], reference[i]);
      }
    }
  }
}

TEST(ParallelBpTest, EdgeAccountingMatchesPartition) {
  auto g = graph::Star(20).value();
  Pcg32 rng(4);
  auto mrf = PairwiseMrf::Random(&g, 2, 0.3, &rng).value();
  LoopyBp solver(&mrf);
  auto partition = graph::BlockPartition(20, 4).value();
  auto stats = RunParallelBp(&solver, partition,
                             {.max_iterations = 5, .tolerance = 1e-8}, 2);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->edges_per_worker.size(), 4u);
  // Worker 0 owns the hub (degree 19) plus 4 leaves.
  EXPECT_EQ(stats->edges_per_worker[0], 19 + 4);
  int64_t total = 0;
  for (int64_t e : stats->edges_per_worker) total += e;
  EXPECT_EQ(total, 2 * g.num_edges());
}

TEST(ParallelBpTest, RejectsBadArguments) {
  auto g = graph::Chain(4).value();
  Pcg32 rng(5);
  auto mrf = PairwiseMrf::Random(&g, 2, 0.3, &rng).value();
  LoopyBp solver(&mrf);
  graph::Partition bad{.assignment = {0, 0}, .num_parts = 1};
  EXPECT_FALSE(
      RunParallelBp(&solver, bad, {.max_iterations = 1}, 1).ok());
  auto partition = graph::BlockPartition(4, 2).value();
  EXPECT_FALSE(
      RunParallelBp(nullptr, partition, {.max_iterations = 1}, 1).ok());
  EXPECT_FALSE(
      RunParallelBp(&solver, partition, {.max_iterations = 1}, 0).ok());
  EXPECT_FALSE(RunParallelBp(&solver, partition, {.max_iterations = 1},
                             kMaxThreads + 1)
                   .ok());
}

}  // namespace
}  // namespace dmlscale::bp
