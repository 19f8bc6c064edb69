#include "layers.h"

#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/memo_cache.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "sim/network_sim.h"

namespace dmlbench {

namespace api = dmlscale::api;
namespace serve = dmlscale::serve;
namespace sim = dmlscale::sim;
namespace sweep = dmlscale::sweep;
using dmlscale::Result;
using dmlscale::Status;
using dmlscale::ThreadPool;

namespace {

// AnalyzeServing calls timed for serve.analyze_us.
constexpr int kAnalyzeCalls = 1000;

const char* const kOptionLabels[] = {"analytic", "planner", "sim",
                                     "sim-spark-overhead"};

RunOutput CsvOutput(const sweep::SweepReport& report) {
  return RunOutput{.text = report.ToCsv(), .extension = "csv",
                   .attempted = static_cast<int>(report.cells.size()),
                   .failed = static_cast<int>(report.num_failed())};
}

RunOutput JsonOutput(std::string json, bool ok) {
  return RunOutput{.text = std::move(json), .extension = "json",
                   .attempted = 1, .failed = ok ? 0 : 1};
}

// paper-sweep: the 4-way runner, then the same grid cell by cell on this
// thread (what SweepRunner::Run does with one thread, opened up so each
// cell, build and analysis gets a span), then the replay of the pricing
// layers once per scenario x hardware pair over n in [1, max_nodes].
bool TraceSweep(uint64_t seed, Tracer& tracer, OutputLog& log,
                Metrics& metrics) {
  Tracer::Scope group = tracer.Open("paper-sweep");
  const sweep::SweepGrid grid = BuildPaperGrid(kSweepMaxNodes);
  const uint64_t base_seed = SweepBaseSeed(seed);
  Result<std::vector<sweep::SweepCell>> cells = grid.Cells();
  if (!cells.ok()) return false;

  sweep::SweepRunnerOptions options;
  options.threads = kParallelWidth;
  options.base_seed = base_seed;
  Tracer::Scope run_span = tracer.Open("sweep.run", "threads=4");
  Result<sweep::SweepReport> fanned = sweep::SweepRunner(options).Run(grid);
  const double fanout_s = run_span.Close();

  dmlscale::MemoCache cache;
  sweep::SweepReport serial;
  serial.cells.resize(cells->size());
  double contended_s = 0.0;
  Tracer::Scope loop_span = tracer.Open("sweep.cells", "threads=1");
  for (const sweep::SweepCell& cell : *cells) {
    sweep::SweepCellResult& result = serial.cells[cell.index];
    result.index = cell.index;
    result.scenario_label = grid.scenario_of(cell).label;
    result.hardware_label = grid.hardware_of(cell).label;
    result.options_label = grid.options_of(cell).label;
    Tracer::Scope cell_span = tracer.Open("sweep.cell", grid.LabelOf(cell));
    auto attempt = [&]() -> Status {
      Tracer::Scope build_span = tracer.Open("api.build");
      Result<api::Scenario> scenario = grid.BuildScenario(cell);
      build_span.Close();
      if (!scenario.ok()) return scenario.status();
      api::AnalysisOptions analysis_options = grid.options_of(cell).options;
      analysis_options.sim_seed = dmlscale::DeriveSeed(base_seed, cell.index);
      analysis_options.threads = 1;
      analysis_options.eval_cache = &cache;
      Tracer::Scope analysis_span =
          tracer.Open("api.analysis." + result.options_label);
      Result<api::AnalysisReport> analysis =
          api::Analysis::Run(*scenario, analysis_options);
      double seconds = analysis_span.Close();
      if (scenario->contended()) contended_s += seconds;
      if (!analysis.ok()) return analysis.status();
      result.report = std::move(analysis).value();
      return Status::OK();
    };
    // Retried once, as the runner does, so both CSVs agree on failures too.
    result.status = attempt();
    if (!result.status.ok()) {
      result.attempts = 2;
      result.status = attempt();
    }
  }
  const double serial_s = loop_span.Close();

  // The cell-by-cell pass must reproduce the runner's CSV byte for byte.
  RunOutput fanned_output =
      fanned.ok() ? CsvOutput(*fanned)
                  : RunOutput{.text = fanned.status().ToString() + "\n",
                              .extension = "csv",
                              .attempted = static_cast<int>(cells->size()),
                              .failed = static_cast<int>(cells->size())};
  bool ok = log.Add("paper-sweep", CsvOutput(serial), serial_s,
                    &fanned_output, fanout_s);

  Tracer::Scope replay_span = tracer.Open("replay", "n=1..128");
  for (size_t s = 0; s < grid.scenarios().size(); ++s) {
    for (size_t h = 0; h < grid.hardware().size(); ++h) {
      sweep::SweepCell cell{.index = 0, .scenario_index = s,
                            .hardware_index = h, .options_index = 0};
      // A pair that fails to build already failed its cells above.
      Result<api::Scenario> scenario = grid.BuildScenario(cell);
      if (!scenario.ok()) continue;
      Tracer::Scope pair_span = tracer.Open("replay.pair", scenario->name());
      if (!scenario->contended()) {
        Tracer::Scope span = tracer.Open("core.closed_form");
        for (int n = 1; n <= kSweepMaxNodes; ++n) {
          (void)(scenario->ComputeSeconds(n) + scenario->CommSeconds(n));
        }
        continue;
      }
      {
        Tracer::Scope span = tracer.Open("core.traffic");
        for (int n = 1; n <= kSweepMaxNodes; ++n) {
          (void)scenario->comm().Traffic(n);
        }
      }
      {
        Tracer::Scope span = tracer.Open("core.contended_price");
        for (int n = 1; n <= kSweepMaxNodes; ++n) {
          (void)scenario->CommSeconds(n);
        }
      }
      Tracer::Scope span = tracer.Open("sim.link_des");
      for (int n = 1; n <= kSweepMaxNodes; ++n) {
        (void)sim::SimulateCommSeconds(scenario->comm(), n,
                                       scenario->cluster().link,
                                       scenario->comm().network());
      }
    }
  }
  replay_span.Close();

  std::vector<double> cell_ms = tracer.Durations("sweep.cell");
  for (double& ms : cell_ms) ms *= 1e3;
  double analysis_s = 0.0;
  for (const char* label : kOptionLabels) {
    analysis_s += tracer.TotalSeconds(std::string("api.analysis.") + label);
  }
  const double replayed_s = tracer.TotalSeconds("core.closed_form") +
                            tracer.TotalSeconds("core.traffic") +
                            tracer.TotalSeconds("core.contended_price") +
                            tracer.TotalSeconds("sim.link_des");
  metrics.emplace_back("sweep.cell_p50_ms",
                       dmlscale::ExactPercentile(cell_ms, 0.5));
  metrics.emplace_back("sweep.cell_p90_ms",
                       dmlscale::ExactPercentile(cell_ms, 0.9));
  metrics.emplace_back("sweep.fanout_speedup", serial_s / fanout_s);
  metrics.emplace_back(
      "common.memo_hit_ratio",
      static_cast<double>(cache.hits()) /
          static_cast<double>(cache.hits() + cache.misses()));
  metrics.emplace_back("api.build_s", tracer.TotalSeconds("api.build"));
  for (const char* label : kOptionLabels) {
    metrics.emplace_back(
        std::string("api.analysis.") + label + "_s",
        tracer.TotalSeconds(std::string("api.analysis.") + label));
  }
  metrics.emplace_back("api.analysis.contended_share",
                       contended_s / analysis_s);
  metrics.emplace_back("core.closed_form_s",
                       tracer.TotalSeconds("core.closed_form"));
  metrics.emplace_back("core.traffic_s", tracer.TotalSeconds("core.traffic"));
  metrics.emplace_back("core.contended_price_s",
                       tracer.TotalSeconds("core.contended_price"));
  metrics.emplace_back("sim.link_des_s", tracer.TotalSeconds("sim.link_des"));
  metrics.emplace_back("sweep.replay_coverage", replayed_s / analysis_s);
  return ok;
}

// engine-10k: the 10k ring serially and sharded, and the 1k ring serially.
bool TraceEngine(uint64_t seed, Tracer& tracer, OutputLog& log,
                 Metrics& metrics) {
  Tracer::Scope group = tracer.Open("engine-10k");
  ThreadPool pool(kParallelWidth);
  struct Timed {
    Result<sim::ScaleStats> stats;
    RunOutput output;
    double seconds;
  };
  auto run = [&](const char* name, int nodes, int width) {
    sim::RingScaleConfig config = RingConfig(nodes, RingSeed(seed, nodes));
    config.exec = Exec(width, &pool);
    Tracer::Scope span =
        tracer.Open(name, "nodes=" + std::to_string(nodes) +
                              " shards=" + std::to_string(width));
    Result<sim::ScaleStats> stats = sim::SimulateRingAllReduceAtScale(config);
    double seconds = span.Close();
    RunOutput output = JsonOutput(RingJson(config, stats), stats.ok());
    return Timed{.stats = std::move(stats), .output = std::move(output),
                 .seconds = seconds};
  };
  Timed serial = run("sim.ring.serial", kRingNodes, 1);
  Timed sharded = run("sim.ring.sharded", kRingNodes, kParallelWidth);
  Timed ring1k = run("sim.ring1k.serial", kRing1kNodes, 1);
  bool ok = log.Add("engine-10k", serial.output, serial.seconds,
                    &sharded.output, sharded.seconds);
  ok = log.Add("ring1k", ring1k.output, ring1k.seconds) && ok;
  if (!serial.stats.ok() || !sharded.stats.ok() || !ring1k.stats.ok()) {
    return ok;
  }
  const dmlscale::sim::EngineStats& engine = serial.stats->engine;
  const double events = static_cast<double>(engine.events_executed);
  metrics.emplace_back("sim.ring.events", events);
  metrics.emplace_back("sim.ring.windows",
                       static_cast<double>(engine.windows));
  metrics.emplace_back("sim.ring.messages",
                       static_cast<double>(engine.messages_delivered));
  metrics.emplace_back("sim.ring.ns_per_event_serial",
                       serial.seconds / events * 1e9);
  metrics.emplace_back("sim.ring.ns_per_event_sharded",
                       sharded.seconds / events * 1e9);
  metrics.emplace_back("sim.ring.shard_speedup",
                       serial.seconds / sharded.seconds);
  metrics.emplace_back(
      "sim.ring1k.ns_per_event_serial",
      ring1k.seconds /
          static_cast<double>(ring1k.stats->engine.events_executed) * 1e9);
  return ok;
}

// serve-fleet: the Q3 answer (each latency evaluation spanned), the
// closed-form pipeline on its own, then the serving DES at the answer and
// at 100 replicas under the same per-replica load, serially and sharded.
bool TraceServe(uint64_t seed, Tracer& tracer, OutputLog& log,
                Metrics& metrics) {
  Tracer::Scope group = tracer.Open("serve-fleet");
  ThreadPool pool(kParallelWidth);
  const serve::ServingSpec spec = FleetSpec();
  Tracer::Scope q3_span = tracer.Open("core.q3_replicas");
  Q3Answer answer = AnswerQ3(spec, &tracer);
  const double q3_s = q3_span.Close();
  bool ok = log.Add("serve-q3", JsonOutput(Q3Json(answer), answer.status.ok()),
                    q3_s);
  if (!answer.status.ok()) return ok;

  serve::ServingSpec point = spec;
  point.replicas = answer.replicas;
  point.arrivals.rate_qps = kQ3Qps;
  // The answer's own spec: ReplicasForQps has just analyzed it successfully.
  Tracer::Scope analyze_span =
      tracer.Open("serve.analyze", "calls=" + std::to_string(kAnalyzeCalls));
  for (int i = 0; i < kAnalyzeCalls; ++i) {
    (void)serve::AnalyzeServing(point);
  }
  const double analyze_s = analyze_span.Close();

  struct Timed {
    Result<serve::ServingSimStats> stats;
    RunOutput output;
    double ns_per_request;
    double seconds;
  };
  auto run = [&](const char* name, int replicas, int width) {
    double qps = kQ3Qps * replicas / answer.replicas;
    serve::ServingSimConfig config =
        FleetSimConfig(replicas, qps, ServeSeed(seed, replicas));
    config.exec = Exec(width, &pool);
    Tracer::Scope span =
        tracer.Open(name, "replicas=" + std::to_string(replicas) +
                              " shards=" + std::to_string(width));
    Result<serve::ServingSimStats> stats = serve::SimulateServing(config);
    double seconds = span.Close();
    RunOutput output = JsonOutput(ServeDesJson(config, stats), stats.ok());
    double requests =
        static_cast<double>(config.num_requests + config.warmup_requests);
    return Timed{.stats = std::move(stats), .output = std::move(output),
                 .ns_per_request = seconds / requests * 1e9,
                 .seconds = seconds};
  };
  Timed serial = run("serve.des.serial", answer.replicas, 1);
  Timed sharded = run("serve.des.sharded", answer.replicas, kParallelWidth);
  Timed r100 = run("serve.des.r100.serial", kR100Replicas, 1);
  Timed r100_sharded =
      run("serve.des.r100.sharded", kR100Replicas, kParallelWidth);
  ok = log.Add("serve-des", serial.output, serial.seconds, &sharded.output,
               sharded.seconds) && ok;
  ok = log.Add("serve-r100", r100.output, r100.seconds, &r100_sharded.output,
               r100_sharded.seconds) && ok;
  if (!serial.stats.ok()) return ok;

  metrics.emplace_back("core.q3_replicas_ms", q3_s * 1e3);
  metrics.emplace_back("serve.analyze_us", analyze_s / kAnalyzeCalls * 1e6);
  metrics.emplace_back(
      "serve.des.events",
      static_cast<double>(serial.stats->engine.events_executed));
  metrics.emplace_back("serve.des.batches",
                       static_cast<double>(serial.stats->batches));
  metrics.emplace_back("serve.des.ns_per_request_serial",
                       serial.ns_per_request);
  metrics.emplace_back("serve.des.ns_per_request_sharded",
                       sharded.ns_per_request);
  metrics.emplace_back("serve.des.shard_speedup",
                       serial.seconds / sharded.seconds);
  metrics.emplace_back("serve.des.ns_per_request_r100", r100.ns_per_request);
  metrics.emplace_back("serve.des.dispatch_growth",
                       serial.ns_per_request / r100.ns_per_request);
  metrics.emplace_back("serve.des.r100_shard_speedup",
                       r100.seconds / r100_sharded.seconds);
  return ok;
}

}  // namespace

bool RunTracedLayers(uint64_t seed, Tracer& tracer, OutputLog& log,
                     Metrics& metrics) {
  bool ok = TraceSweep(seed, tracer, log, metrics);
  ok = TraceEngine(seed, tracer, log, metrics) && ok;
  ok = TraceServe(seed, tracer, log, metrics) && ok;
  return ok;
}

}  // namespace dmlbench
