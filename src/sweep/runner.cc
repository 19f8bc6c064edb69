#include "sweep/runner.h"

#include <utility>
#include <vector>

#include "common/memo_cache.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace dmlscale::sweep {

SweepRunner::SweepRunner(SweepRunnerOptions options)
    : options_(std::move(options)) {}

Result<SweepReport> SweepRunner::Run(const SweepGrid& grid) const {
  DMLSCALE_RETURN_NOT_OK(ValidateThreadCount("threads", options_.threads));
  DMLSCALE_ASSIGN_OR_RETURN(std::vector<SweepCell> cells, grid.Cells());

  Stopwatch stopwatch;
  MemoCache cache;
  SweepReport report;
  report.threads = options_.threads;
  report.cells.resize(cells.size());

  // One attempt at a cell: build the scenario, run the analysis, fill the
  // result slot. Returns the attempt's status.
  auto attempt_cell = [this, &grid, &cache](const SweepCell& cell,
                                            SweepCellResult& result) {
    auto scenario = grid.BuildScenario(cell);
    if (!scenario.ok()) return scenario.status();
    api::AnalysisOptions options = grid.options_of(cell).options;
    options.sim_seed =
        DeriveSeed(options_.base_seed, static_cast<uint64_t>(cell.index));
    options.threads = 1;
    options.eval_cache = options_.use_eval_cache ? &cache : nullptr;
    auto analysis = api::Analysis::Run(*scenario, options);
    if (!analysis.ok()) return analysis.status();
    result.report = std::move(analysis).value();
    return Status::OK();
  };

  // Each task writes only its own slot, so the collection needs no lock and
  // the result vector is in grid order by construction. A failed cell is
  // retried exactly once with the SAME derived seed: the pipeline is
  // deterministic, so a deterministic failure fails identically both times
  // (keeping serial and threaded CSVs byte-identical) while the retry count
  // lands in the status column for the operator to see.
  auto run_cell = [&grid, &attempt_cell, &report](const SweepCell& cell) {
    SweepCellResult& result = report.cells[cell.index];
    result.index = cell.index;
    result.scenario_label = grid.scenario_of(cell).label;
    result.hardware_label = grid.hardware_of(cell).label;
    result.options_label = grid.options_of(cell).label;

    result.status = attempt_cell(cell, result);
    if (!result.status.ok()) {
      result.attempts = 2;
      result.status = attempt_cell(cell, result);
    }
  };

  if (options_.threads > 1) {
    ThreadPool pool(static_cast<size_t>(options_.threads));
    for (const SweepCell& cell : cells) {
      pool.Submit([&run_cell, cell] { run_cell(cell); });
    }
    pool.WaitIdle();
  } else {
    for (const SweepCell& cell : cells) run_cell(cell);
  }

  report.cache_hits = cache.hits();
  report.cache_misses = cache.misses();
  report.wall_seconds = stopwatch.ElapsedSeconds();
  return report;
}

}  // namespace dmlscale::sweep
