#ifndef DMLSCALE_BP_PARALLEL_BP_H_
#define DMLSCALE_BP_PARALLEL_BP_H_

#include <vector>

#include "bp/bp.h"
#include "graph/partition.h"

namespace dmlscale::bp {

/// Per-worker work accounting of one parallel BP run, used to compare the
/// measured imbalance against the Monte-Carlo prediction of Section IV-B.
struct ParallelBpStats {
  BpRunResult run;
  /// Directed-edge updates performed by each worker per superstep.
  std::vector<int64_t> edges_per_worker;
  /// Directed edges whose endpoints live on different workers — the
  /// messages a distributed deployment would put on the wire each
  /// superstep. In-process workers exchange them through shared memory,
  /// but the count is the measured communication volume the calibration
  /// workloads price against a scenario's interconnect.
  int64_t cut_directed_edges = 0;
};

/// Partition-parallel synchronous loopy BP: workers update the messages of
/// their vertices concurrently within each superstep; a barrier (the
/// buffer swap) separates supersteps. Produces bit-identical results to the
/// sequential LoopyBp::Run because updates read only the previous
/// superstep's messages.
///
/// `num_threads` real threads, in [1, kMaxThreads], execute
/// `partition.num_parts` logical workers; when they differ, workers are
/// processed round-robin (useful on machines with fewer cores than modeled
/// workers).
Result<ParallelBpStats> RunParallelBp(LoopyBp* solver,
                                      const graph::Partition& partition,
                                      const BpOptions& options,
                                      int num_threads);

}  // namespace dmlscale::bp

#endif  // DMLSCALE_BP_PARALLEL_BP_H_
