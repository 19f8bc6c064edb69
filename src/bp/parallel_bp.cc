#include "bp/parallel_bp.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"

namespace dmlscale::bp {

Result<ParallelBpStats> RunParallelBp(LoopyBp* solver,
                                      const graph::Partition& partition,
                                      const BpOptions& options,
                                      int num_threads) {
  if (solver == nullptr) return Status::InvalidArgument("null solver");
  DMLSCALE_RETURN_NOT_OK(partition.Validate());
  const graph::Graph& g = solver->mrf().graph();
  if (static_cast<graph::VertexId>(partition.assignment.size()) !=
      g.num_vertices()) {
    return Status::InvalidArgument("partition size != num_vertices");
  }
  DMLSCALE_RETURN_NOT_OK(ValidateThreadCount("num_threads", num_threads));

  // Group vertices by logical worker.
  std::vector<std::vector<graph::VertexId>> worker_vertices(
      static_cast<size_t>(partition.num_parts));
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    worker_vertices[static_cast<size_t>(
                        partition.assignment[static_cast<size_t>(v)])]
        .push_back(v);
  }

  ParallelBpStats stats;
  stats.edges_per_worker.assign(static_cast<size_t>(partition.num_parts), 0);
  for (int w = 0; w < partition.num_parts; ++w) {
    for (graph::VertexId v : worker_vertices[static_cast<size_t>(w)]) {
      stats.edges_per_worker[static_cast<size_t>(w)] += g.Degree(v);
      for (graph::VertexId u : g.Neighbors(v)) {
        if (partition.assignment[static_cast<size_t>(u)] != w) {
          ++stats.cut_directed_edges;
        }
      }
    }
  }

  ThreadPool pool(static_cast<size_t>(num_threads));
  std::vector<double> worker_delta(static_cast<size_t>(partition.num_parts),
                                   0.0);

  for (int it = 0; it < options.max_iterations; ++it) {
    for (int w = 0; w < partition.num_parts; ++w) {
      pool.Submit([solver, &worker_vertices, &worker_delta, w] {
        double local = 0.0;
        for (graph::VertexId v : worker_vertices[static_cast<size_t>(w)]) {
          local = std::max(local, solver->UpdateVertex(v));
        }
        worker_delta[static_cast<size_t>(w)] = local;
      });
    }
    pool.WaitIdle();
    solver->CommitSuperstep();
    double delta =
        *std::max_element(worker_delta.begin(), worker_delta.end());
    stats.run.final_delta = delta;
    stats.run.iterations = it + 1;
    if (delta < options.tolerance) {
      stats.run.converged = true;
      break;
    }
  }
  return stats;
}

}  // namespace dmlscale::bp
