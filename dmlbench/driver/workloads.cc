#include "workloads.h"

#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/planner.h"
#include "json.h"
#include "models/gradient_descent.h"
#include "tracer.h"

namespace dmlbench {

namespace api = dmlscale::api;
namespace core = dmlscale::core;
namespace serve = dmlscale::serve;
namespace sim = dmlscale::sim;
namespace sweep = dmlscale::sweep;
using dmlscale::DeriveSeed;
using dmlscale::Result;
using dmlscale::Status;
using dmlscale::ThreadPool;

uint64_t SweepBaseSeed(uint64_t seed) { return DeriveSeed(seed, 1); }

uint64_t RingSeed(uint64_t seed, int nodes) {
  return DeriveSeed(DeriveSeed(seed, 2), static_cast<uint64_t>(nodes));
}

uint64_t ServeSeed(uint64_t seed, int replicas) {
  return DeriveSeed(DeriveSeed(seed, 3), static_cast<uint64_t>(replicas));
}

sweep::SweepGrid BuildPaperGrid(int max_nodes) {
  dmlscale::models::GdWorkload mnist = dmlscale::models::SparkMnistWorkload();
  double mnist_bits = mnist.MessageBits();
  auto mnist_flops = [&mnist](double batch) {
    return mnist.ops_per_example * batch;
  };
  dmlscale::models::GdWorkload inception =
      dmlscale::models::TensorFlowInceptionWorkload();
  auto gd = [](std::string label, double flops, std::string comm,
               api::ModelParams comm_params) {
    sweep::ScenarioAxisPoint point;
    point.label = std::move(label);
    point.compute_model = "perfectly-parallel";
    point.compute_params = {{"total_flops", flops}};
    point.comm_model = std::move(comm);
    point.comm_params = std::move(comm_params);
    return point;
  };

  sweep::SweepGrid grid;
  grid.AddScenario(gd("fig1-generic", 196.0e9, "linear", {{"bits", 1e9}}));
  grid.AddScenario(gd("fig2-mnist-b60k", mnist_flops(60000.0), "spark-gd",
                      {{"bits", mnist_bits}}));
  grid.AddScenario(gd("fig2-mnist-b7500", mnist_flops(7500.0), "spark-gd",
                      {{"bits", mnist_bits}}));
  grid.AddScenario(gd("fig2-mnist-b240k", mnist_flops(240000.0), "spark-gd",
                      {{"bits", mnist_bits}}));
  grid.AddScenario(gd("tf-inception",
                      inception.ops_per_example * inception.batch_size,
                      "tree",
                      {{"bits", inception.MessageBits()}, {"rounds", 2}}));
  grid.AddScenario(gd("mnist-linear", mnist_flops(60000.0), "linear",
                      {{"bits", mnist_bits}}));
  sweep::ScenarioAxisPoint ring = gd("mnist-ring", mnist_flops(60000.0),
                                     "ring-allreduce", {{"bits", mnist_bits}});
  grid.AddScenario(ring);
  // The contended-fabric ablation of the ring: these cells are the ones
  // priced per link, analytically and by the per-link DES.
  std::vector<sweep::NetworkAxisPoint> networks(3);
  networks[0].label = "ft4x4-mm1";
  networks[0].params.Set("topology", "fat-tree").Set("oversubscription", 4.0);
  networks[0].params.Set("queue", "mm1");
  networks[1].label = "mesh-mm1";
  networks[1].params.Set("topology", "mesh2d").Set("queue", "mm1");
  networks[2].label = "star-mm1";
  networks[2].params.Set("topology", "star").Set("queue", "mm1");
  for (sweep::ScenarioAxisPoint& point :
       sweep::ExpandNetworkAxis(ring, networks)) {
    grid.AddScenario(std::move(point));
  }
  grid.AddScenario(gd("mnist-recdouble", mnist_flops(60000.0),
                      "recursive-doubling", {{"bits", mnist_bits}}));

  auto cluster = [max_nodes](core::NodeSpec node, core::LinkSpec link) {
    return core::ClusterSpec{.node = node,
                             .link = link,
                             .max_nodes = max_nodes,
                             .shared_memory = false};
  };
  grid.AddHardware({.label = "xeon-gige",
                    .cluster = cluster(api::presets::XeonE3_1240Double(),
                                       api::presets::GigabitEthernet())});
  grid.AddHardware({.label = "xeon-10gige",
                    .cluster = cluster(api::presets::XeonE3_1240Double(),
                                       api::presets::TenGigabitEthernet())});
  grid.AddHardware({.label = "k40-gige",
                    .cluster = cluster(api::presets::NvidiaK40(),
                                       api::presets::GigabitEthernet())});
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = cluster(api::presets::GenericGigaflopNode(),
                                       api::presets::GigabitEthernet())});

  grid.AddOptions({.label = "analytic", .options = {}});
  api::AnalysisOptions planner;
  planner.target_speedup = 2.0;
  planner.workload_growth = 3.0;
  planner.current_nodes = 4;
  grid.AddOptions({.label = "planner", .options = planner});
  api::AnalysisOptions simulated;
  simulated.simulate = true;
  simulated.sim_supersteps = 40;
  grid.AddOptions({.label = "sim", .options = simulated});
  api::AnalysisOptions overhead = simulated;
  overhead.overhead = sim::OverheadModel::SparkLike();
  grid.AddOptions({.label = "sim-spark-overhead", .options = overhead});
  return grid;
}

sim::RingScaleConfig RingConfig(int nodes, uint64_t seed) {
  sim::RingScaleConfig config;
  config.num_nodes = nodes;
  config.bits = static_cast<int64_t>(nodes) * 100000;
  config.link = core::LinkSpec{.bandwidth_bps = 1e10, .latency_s = 5e-6};
  config.compute_seconds = 2e-6;
  config.straggler_sigma = 0.2;
  config.seed = seed;
  config.max_steps = kRingSteps;
  return config;
}

serve::ServingSpec FleetSpec() {
  serve::ServingSpec spec;
  spec.batcher.max_batch = 8;
  spec.batcher.max_delay_s = 0.002;
  spec.replica.service.fixed_s = 0.0002;
  spec.replica.service.per_item_s = 0.0003;
  spec.cache.policy = serve::CachePolicy::kLru;
  spec.cache.hit_rate = 0.3;
  spec.cache.hit_latency_s = 100e-6;
  spec.quantile = 0.99;
  return spec;
}

serve::ServingSimConfig FleetSimConfig(int replicas, double qps,
                                       uint64_t seed) {
  serve::ServingSimConfig config;
  config.spec = FleetSpec();
  config.spec.replicas = replicas;
  config.spec.arrivals.rate_qps = qps;
  config.num_requests = kRequestsPerReplica * replicas;
  config.warmup_requests = kWarmupPerReplica * replicas;
  config.seed = seed;
  return config;
}

Q3Answer AnswerQ3(const serve::ServingSpec& spec, Tracer* tracer) {
  core::ServingLatencyFn latency = [&spec, tracer](int replicas, double qps) {
    if (tracer == nullptr) {
      return serve::AnalyticQuantileLatency(spec, replicas, qps);
    }
    Tracer::Scope span = tracer->Open("serve.quantile_latency",
                                      "replicas=" + std::to_string(replicas));
    return serve::AnalyticQuantileLatency(spec, replicas, qps);
  };
  Q3Answer answer;
  Result<int> replicas = core::CapacityPlanner::ReplicasForQps(
      latency, kQ3Qps, kQ3SloS, kQ3MaxReplicas);
  if (!replicas.ok()) {
    answer.status = replicas.status();
    return answer;
  }
  answer.replicas = replicas.value();
  Result<double> at = serve::AnalyticQuantileLatency(spec, answer.replicas,
                                                     kQ3Qps);
  if (!at.ok()) {
    answer.status = at.status();
    return answer;
  }
  answer.latency_s = at.value();
  if (answer.replicas > 1) {
    Result<double> below = serve::AnalyticQuantileLatency(
        spec, answer.replicas - 1, kQ3Qps);
    answer.below_feasible = below.ok();
    if (below.ok()) answer.below_latency_s = below.value();
  }
  return answer;
}

std::string RingJson(const sim::RingScaleConfig& config,
                     const Result<sim::ScaleStats>& stats) {
  JsonObject out;
  out.Str("kind", "ring").Int("nodes", config.num_nodes);
  out.Int("steps", config.max_steps);
  out.Bool("ok", stats.ok());
  if (!stats.ok()) return out.Str("status", stats.status().ToString()).str();
  const sim::ScaleStats& s = stats.value();
  out.Num("seconds", s.seconds)
      .Int("events", s.engine.events_executed)
      .Num("end_time", s.engine.end_time)
      .Int("windows", s.engine.windows)
      .Int("messages", s.engine.messages_delivered);
  return out.str();
}

std::string ServeDesJson(const serve::ServingSimConfig& config,
                         const Result<serve::ServingSimStats>& stats) {
  JsonObject out;
  out.Str("kind", "serve-des").Int("replicas", config.spec.replicas);
  out.Num("qps", config.spec.arrivals.rate_qps);
  out.Int("requests", config.num_requests);
  out.Int("warmup", config.warmup_requests);
  out.Bool("ok", stats.ok());
  if (!stats.ok()) return out.Str("status", stats.status().ToString()).str();
  const serve::ServingSimStats& s = stats.value();
  out.Int("latency_count", static_cast<int64_t>(s.latency.count()))
      .Num("latency_mean_s", s.latency.Mean())
      .Raw("latency_bins", JsonArray(s.latency.bins()))
      .Num("p50_s", s.p50_s)
      .Num("p95_s", s.p95_s)
      .Num("p99_s", s.p99_s)
      .Num("mean_latency_s", s.mean_latency_s)
      .Num("duration_s", s.duration_s)
      .Num("offered_qps", s.offered_qps)
      .Num("completed_qps", s.completed_qps)
      .Int("cache_hits", static_cast<int64_t>(s.cache_hits))
      .Int("cache_misses", static_cast<int64_t>(s.cache_misses))
      .Raw("replica_utilization", JsonArray(s.replica_utilization))
      .Num("mean_replica_utilization", s.mean_replica_utilization)
      .Int("batches", s.batches)
      .Num("mean_batch", s.mean_batch)
      .Int("events", s.engine.events_executed)
      .Num("end_time", s.engine.end_time)
      .Int("windows", s.engine.windows)
      .Int("messages", s.engine.messages_delivered);
  return out.str();
}

std::string Q3Json(const Q3Answer& answer) {
  JsonObject out;
  out.Str("kind", "q3").Num("qps", kQ3Qps).Num("slo_s", kQ3SloS);
  out.Bool("ok", answer.status.ok());
  if (!answer.status.ok()) {
    return out.Str("status", answer.status.ToString()).str();
  }
  return out.Int("replicas", answer.replicas)
      .Num("latency_s", answer.latency_s)
      .Bool("below_feasible", answer.below_feasible)
      .Num("below_latency_s", answer.below_latency_s)
      .str();
}

sim::EngineExec Exec(int width, ThreadPool* pool) {
  sim::EngineExec exec;
  exec.num_shards = width;
  exec.pool = width > 1 ? pool : nullptr;
  return exec;
}

namespace {

class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(uint64_t seed)
      : grid_(BuildPaperGrid(kSweepMaxNodes)), base_seed_(SweepBaseSeed(seed)) {}

  RunOutput Run(int width) override {
    sweep::SweepRunnerOptions options;
    options.threads = width;
    options.base_seed = base_seed_;
    Result<sweep::SweepReport> report = sweep::SweepRunner(options).Run(grid_);
    RunOutput out{.text = "", .extension = "csv",
                  .attempted = static_cast<int>(grid_.size()), .failed = 0};
    if (!report.ok()) {
      out.failed = out.attempted;
      out.text = report.status().ToString() + "\n";
      return out;
    }
    out.failed = static_cast<int>(report->num_failed());
    out.text = report->ToCsv();
    return out;
  }

 private:
  sweep::SweepGrid grid_;
  uint64_t base_seed_;
};

class Engine10k final : public Workload {
 public:
  explicit Engine10k(uint64_t seed)
      : config_(RingConfig(kRingNodes, RingSeed(seed, kRingNodes))),
        pool_(kParallelWidth) {}

  RunOutput Run(int width) override {
    sim::RingScaleConfig config = config_;
    config.exec = Exec(width, &pool_);
    Result<sim::ScaleStats> stats = sim::SimulateRingAllReduceAtScale(config);
    return RunOutput{.text = RingJson(config, stats), .extension = "json",
                     .attempted = 1, .failed = stats.ok() ? 0 : 1};
  }

 private:
  sim::RingScaleConfig config_;
  ThreadPool pool_;
};

class ServeFleet final : public Workload {
 public:
  explicit ServeFleet(uint64_t seed)
      : spec_(FleetSpec()), seed_(seed), pool_(kParallelWidth) {}

  RunOutput Run(int width) override {
    RunOutput out{.text = "", .extension = "json", .attempted = 1,
                  .failed = 0};
    Q3Answer answer = AnswerQ3(spec_);
    JsonObject json;
    json.Str("kind", "serve-fleet").Raw("q3", Q3Json(answer));
    if (!answer.status.ok()) {
      out.failed = 1;
      out.text = json.str();
      return out;
    }
    serve::ServingSimConfig config =
        FleetSimConfig(answer.replicas, kQ3Qps, ServeSeed(seed_, answer.replicas));
    config.exec = Exec(width, &pool_);
    Result<serve::ServingSimStats> stats = serve::SimulateServing(config);
    out.attempted += 1;
    if (!stats.ok()) out.failed += 1;
    out.text = json.Raw("des", ServeDesJson(config, stats)).str();
    return out;
  }

 private:
  serve::ServingSpec spec_;
  uint64_t seed_;
  ThreadPool pool_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "paper-sweep") return std::make_unique<PaperSweep>(seed);
  if (name == "engine-10k") return std::make_unique<Engine10k>(seed);
  if (name == "serve-fleet") return std::make_unique<ServeFleet>(seed);
  return nullptr;
}

}  // namespace dmlbench
