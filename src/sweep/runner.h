#ifndef DMLSCALE_SWEEP_RUNNER_H_
#define DMLSCALE_SWEEP_RUNNER_H_

#include <cstdint>

#include "common/status.h"
#include "sweep/grid.h"
#include "sweep/report.h"

namespace dmlscale::sweep {

struct SweepRunnerOptions {
  /// Worker threads fanning the grid's cells out over a ThreadPool, in
  /// [1, kMaxThreads] (1 = run every cell inline). Cells are the unit of
  /// parallelism, so each cell's Analysis::Run stays single-threaded.
  int threads = 1;

  /// Base seed. Cell `i` simulates with sim_seed = DeriveSeed(base_seed, i)
  /// (and per node count derived again inside Analysis), which is what makes
  /// every cell result a pure function of (grid, base_seed) — the thread
  /// count and completion order cannot leak into any row of the report
  /// (only into its run-diagnostics counters; see SweepReport).
  uint64_t base_seed = 42;

  /// Share one MemoCache across all cells, so options-axis cells over the
  /// same scenario x hardware pair reuse ComputeSeconds / CommSeconds
  /// evaluations instead of recomputing them.
  bool use_eval_cache = true;
};

/// Fans a SweepGrid out over a ThreadPool and collects one SweepCellResult
/// per cell, in grid order.
class SweepRunner {
 public:
  explicit SweepRunner(SweepRunnerOptions options = {});

  /// Runs every cell. Fails only on structural problems (empty axes, bad
  /// runner options); per-cell failures are recorded in their result row.
  Result<SweepReport> Run(const SweepGrid& grid) const;

 private:
  SweepRunnerOptions options_;
};

}  // namespace dmlscale::sweep

#endif  // DMLSCALE_SWEEP_RUNNER_H_
