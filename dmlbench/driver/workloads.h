#ifndef DMLBENCH_DRIVER_WORKLOADS_H_
#define DMLBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "serve/cluster.h"
#include "serve/serving_sim.h"
#include "sim/scale_scenarios.h"
#include "sweep/sweep.h"

namespace dmlbench {

class Tracer;

/// Threads (paper-sweep) or shards (engine-10k, serve-fleet) of every
/// parallel run.
inline constexpr int kParallelWidth = 4;

// paper-sweep: the 176-cell paper grid.
inline constexpr int kSweepMaxNodes = 128;

// engine-10k: ring all-reduce capped at kRingSteps steps, so
// nodes * (kRingSteps + 1) events; the 1k ring fits in cache.
inline constexpr int kRingNodes = 10000;
inline constexpr int kRing1kNodes = 1000;
inline constexpr int kRingSteps = 1000;

// serve-fleet: "replicas for kQ3Qps at p99 <= kQ3SloS", then the serving DES
// at the answer with kRequestsPerReplica measured requests per replica.
inline constexpr double kQ3Qps = 4.3e6;
inline constexpr double kQ3SloS = 0.010;
inline constexpr int kQ3MaxReplicas = 4096;
inline constexpr int64_t kRequestsPerReplica = 1000;
inline constexpr int64_t kWarmupPerReplica = 10;
inline constexpr int kR100Replicas = 100;

/// Every internal seed is derived from the --seed argument through these.
uint64_t SweepBaseSeed(uint64_t seed);
uint64_t RingSeed(uint64_t seed, int nodes);
uint64_t ServeSeed(uint64_t seed, int replicas);

/// Engine execution at `width` shards on `pool` (unused when width is 1).
dmlscale::sim::EngineExec Exec(int width, dmlscale::ThreadPool* pool);

/// The paper grid of bench/sweep_grid.cc (11 scenarios x 4 hardware presets
/// x 4 analysis options = 176 cells), with 40 simulated supersteps.
dmlscale::sweep::SweepGrid BuildPaperGrid(int max_nodes);

/// The bench/sim_scale.cc ring: 10GbE link, 100 kb chunk per hop, 2 us
/// jittered reduce-add.
dmlscale::sim::RingScaleConfig RingConfig(int nodes, uint64_t seed);

/// The bench/serve_scale.cc service law (batches of up to 8, 0.2 ms +
/// 0.3 ms/item, a 30% cache in front), Poisson arrivals, p99 planning.
dmlscale::serve::ServingSpec FleetSpec();

/// The serving DES at `replicas` replicas and `qps` offered load.
dmlscale::serve::ServingSimConfig FleetSimConfig(int replicas, double qps,
                                                 uint64_t seed);

/// The serve Q3 answer and the evidence the checker needs: the latency at
/// the answer and one replica below it.
struct Q3Answer {
  dmlscale::Status status;
  int replicas = 0;
  double latency_s = 0.0;
  bool below_feasible = false;  // answer - 1 replicas can keep up at all
  double below_latency_s = 0.0;
};

/// Answers Q3 through core::CapacityPlanner::ReplicasForQps over
/// serve::AnalyticQuantileLatency. With a tracer, each latency evaluation
/// gets a "serve.quantile_latency" span.
Q3Answer AnswerQ3(const dmlscale::serve::ServingSpec& spec,
                  Tracer* tracer = nullptr);

// Outputs as JSON objects the checker compares field by field.
std::string RingJson(const dmlscale::sim::RingScaleConfig& config,
                     const dmlscale::Result<dmlscale::sim::ScaleStats>& stats);
std::string ServeDesJson(
    const dmlscale::serve::ServingSimConfig& config,
    const dmlscale::Result<dmlscale::serve::ServingSimStats>& stats);
std::string Q3Json(const Q3Answer& answer);

/// One run of a workload's whole problem at one width.
struct RunOutput {
  std::string text;       // the output the checker reads
  std::string extension;  // "csv" or "json"
  int attempted = 0;      // operations run
  int failed = 0;         // operations whose Status was not OK
};

/// A workload after set-up (grid, specs and pools built): each Run is one
/// closed-loop pass over the problem.
class Workload {
 public:
  virtual ~Workload() = default;
  /// width 1 = serial; kParallelWidth = the 4-way run.
  virtual RunOutput Run(int width) = 0;
};

/// Sets up the named workload ("paper-sweep", "engine-10k",
/// "serve-fleet"); nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace dmlbench

#endif  // DMLBENCH_DRIVER_WORKLOADS_H_
