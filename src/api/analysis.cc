#include "api/analysis.h"

#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/calibration.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/planner.h"
#include "core/validation.h"
#include "sim/network_sim.h"
#include "sim/workloads.h"

namespace dmlscale::api {

namespace {

PlannerAnswer ToAnswer(const Result<int>& result) {
  PlannerAnswer answer;
  if (result.ok()) {
    answer.achievable = true;
    answer.nodes = result.value();
  } else {
    answer.achievable = false;
    answer.note = result.status().message();
  }
  return answer;
}

/// The scenario's two time terms at every n in [1, max_nodes], indexed by
/// n (index 0 is unused). Everything downstream (curve, planner, fault
/// model, simulator) prices the scenario exclusively through this table.
struct TimeTable {
  std::vector<double> compute_s;
  std::vector<double> comm_s;

  double Compute(int n) const { return compute_s[static_cast<size_t>(n)]; }
  double Comm(int n) const { return comm_s[static_cast<size_t>(n)]; }
  double Seconds(int n) const { return Compute(n) + Comm(n); }
};

/// A priced term must be a time: finite and >= 0. A Compute(fn) callable
/// can return anything, so this is a Status, not a CHECK.
Status CheckTerm(const Scenario& scenario, std::string_view term, int n,
                 double seconds) {
  if (std::isfinite(seconds) && seconds >= 0.0) return Status::OK();
  return Status::InvalidArgument(
      "scenario '" + scenario.name() + "': " + std::string(term) +
      " term at n=" + std::to_string(n) + " is " + FormatDouble(seconds) +
      " s; every priced term must be finite and >= 0 (a Compute(fn) "
      "callable must return a finite, non-negative share)");
}

/// Evaluates each term once per node count, through the shared eval cache
/// when one is configured.
Result<TimeTable> PriceNodeCounts(const Scenario& scenario, int max_nodes,
                                  MemoCache* cache) {
  const size_t size = static_cast<size_t>(max_nodes) + 1;
  TimeTable times{.compute_s = std::vector<double>(size, 0.0),
                  .comm_s = std::vector<double>(size, 0.0)};
  // Scenario::CacheKey digests every model parameter — including the network
  // keys — so two cells differing only in, say, `oversubscription` can never
  // alias each other's cached times even under one display name.
  const std::string cache_key = cache == nullptr ? "" : scenario.CacheKey();
  for (int n = 1; n <= max_nodes; ++n) {
    auto compute = [&scenario, n] { return scenario.ComputeSeconds(n); };
    auto comm = [&scenario, n] { return scenario.CommSeconds(n); };
    const size_t i = static_cast<size_t>(n);
    if (cache == nullptr) {
      times.compute_s[i] = compute();
      times.comm_s[i] = comm();
    } else {
      times.compute_s[i] =
          cache->GetOrCompute(cache_key + "|cp|" + std::to_string(n), compute);
      times.comm_s[i] =
          cache->GetOrCompute(cache_key + "|cm|" + std::to_string(n), comm);
    }
    DMLSCALE_RETURN_NOT_OK(
        CheckTerm(scenario, "compute", n, times.compute_s[i]));
    DMLSCALE_RETURN_NOT_OK(CheckTerm(scenario, "comm", n, times.comm_s[i]));
  }
  return times;
}

Result<core::SpeedupCurve> SimulateCurve(const Scenario& scenario,
                                         const TimeTable& times,
                                         const AnalysisOptions& options,
                                         const std::vector<int>& nodes) {
  int supersteps = scenario.supersteps();
  // Scenario::Builder rejects supersteps < 1, but guard the division here
  // too: a zero would turn every simulated point into inf/NaN.
  if (supersteps < 1) {
    return Status::InvalidArgument("scenario '" + scenario.name() +
                                   "': supersteps must be >= 1");
  }
  // On a contended network the simulated curve prices communication with
  // the per-link discrete-event simulator instead of the analytic queue
  // model — that divergence is exactly what model_vs_sim_mape then measures.
  // Per-superstep comm times are filled here, deterministically, before the
  // jittered per-point fan-out, so the generic superstep simulator's draw
  // sequence stays untouched.
  std::vector<double> comm_seconds(times.comm_s.size(), 0.0);
  for (int n : nodes) {
    // Traffic(n) is run-length encoded, so the DES simulates each distinct
    // round once: a ring costs one n-flow round, not 2(n-1) of them.
    comm_seconds[static_cast<size_t>(n)] =
        scenario.contended()
            ? scenario.comm_coefficient() *
                  sim::SimulateCommSeconds(scenario.comm(), n,
                                           scenario.cluster().link,
                                           scenario.comm().network())
            : times.Comm(n) / supersteps;
  }
  sim::SuperstepSimConfig config{
      .message_bits = scenario.comm_params().GetOr("bits", 0.0),
      .overhead = options.overhead,
      .supersteps = options.sim_supersteps};

  // One independently seeded generator per node count: the point at n is the
  // same whether the curve is evaluated front to back, in parallel, or as
  // part of a longer curve. A single generator threaded through the loop
  // would make every point depend on its predecessors' draw counts.
  std::vector<double> seconds(nodes.size(), 0.0);
  std::vector<Status> statuses(nodes.size());
  auto simulate_point = [&](size_t i) {
    int n = nodes[i];
    Pcg32 rng(DeriveSeed(options.sim_seed, static_cast<uint64_t>(n)),
              static_cast<uint64_t>(n));
    auto t = sim::SimulateGenericSuperstep(
        config, n, times.Compute(n) / supersteps,
        comm_seconds[static_cast<size_t>(n)], &rng);
    if (t.ok()) {
      seconds[i] = t.value();
    } else {
      statuses[i] = t.status();
    }
  };
  if (options.threads > 1) {
    ThreadPool pool(static_cast<size_t>(options.threads));
    for (size_t i = 0; i < nodes.size(); ++i) {
      pool.Submit([&simulate_point, i] { simulate_point(i); });
    }
    pool.WaitIdle();
  } else {
    for (size_t i = 0; i < nodes.size(); ++i) simulate_point(i);
  }
  // Report the first failure in node order, so the surfaced error is also
  // independent of scheduling.
  for (const Status& status : statuses) DMLSCALE_RETURN_NOT_OK(status);

  core::SpeedupCurve curve;
  curve.reference_n = options.reference_n;
  double reference = 0.0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    seconds[i] *= supersteps;
    if (nodes[i] == options.reference_n) reference = seconds[i];
  }
  if (reference <= 0.0) {
    return Status::Internal(
        "simulated reference time is not positive (reference_n must be "
        "among the evaluated node counts)");
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    curve.nodes.push_back(nodes[i]);
    curve.speedup.push_back(reference / seconds[i]);
  }
  return curve;
}

}  // namespace

Result<AnalysisReport> Analysis::Run(const Scenario& scenario,
                                     const AnalysisOptions& options) {
  int max_nodes =
      options.max_nodes > 0 ? options.max_nodes : scenario.cluster().max_nodes;
  if (max_nodes > kMaxNodesLimit) {
    return Status::InvalidArgument("max_nodes must be <= " +
                                   std::to_string(kMaxNodesLimit));
  }
  if (options.reference_n < 1 || options.reference_n > max_nodes) {
    return Status::InvalidArgument("reference_n must be in [1, max_nodes]");
  }
  DMLSCALE_RETURN_NOT_OK(ValidateThreadCount("threads", options.threads));
  // A target <= 0 leaves its question unasked; NaN would fail that test
  // too and silently skip the question, so non-finite targets are errors.
  for (const auto& [field, target] :
       {std::pair<std::string_view, double>{"target_speedup",
                                            options.target_speedup},
        {"workload_growth", options.workload_growth},
        {"fault_target_seconds", options.fault_target_seconds}}) {
    if (!std::isfinite(target)) {
      return Status::InvalidArgument(std::string(field) + " must be finite");
    }
  }
  if (options.eval_cache != nullptr &&
      (scenario.name().empty() || scenario.callable_compute())) {
    // Cache keys embed the scenario name and digest parameters, not a
    // callable's function; unnamed or Compute(fn) scenarios sharing a
    // cache would silently reuse each other's times.
    return Status::InvalidArgument(
        "eval_cache requires a named scenario (keys embed the name) with a "
        "registered compute model (keys cannot digest a Compute(fn) "
        "callable)");
  }

  DMLSCALE_ASSIGN_OR_RETURN(
      const TimeTable times,
      PriceNodeCounts(scenario, max_nodes, options.eval_cache));
  core::FunctionModel model([&times](int n) { return times.Seconds(n); },
                            scenario.name());
  // Growth scales the data-dependent computation term; the communication
  // payload is the model, which does not grow with the input.
  core::CapacityPlanner planner(
      [&times](int n, double data_scale) {
        return data_scale * times.Compute(n) + times.Comm(n);
      },
      max_nodes);

  AnalysisReport report;
  report.scenario_name = scenario.name();
  report.comm_label = scenario.comm_label();
  report.contended = scenario.contended();
  report.compute_coefficient = scenario.compute_coefficient();
  report.comm_coefficient = scenario.comm_coefficient();
  report.calibrated = scenario.calibrated();
  DMLSCALE_ASSIGN_OR_RETURN(
      report.curve, core::SpeedupAnalyzer::Compute(model, max_nodes,
                                                   options.reference_n));
  report.reference_seconds = times.Seconds(options.reference_n);
  report.optimal_nodes = report.curve.OptimalNodes();
  report.first_local_peak = report.curve.FirstLocalPeak();
  report.peak_speedup = report.curve.PeakSpeedup();
  report.scalable = report.curve.IsScalable();

  if (options.target_speedup > 0.0 || options.workload_growth > 0.0) {
    if (options.current_nodes < 1 || options.current_nodes > max_nodes) {
      return Status::InvalidArgument("current_nodes must be in [1, max_nodes]");
    }
    if (options.target_speedup > 0.0) {
      report.speedup_answer = ToAnswer(planner.NodesToSpeedUp(
          options.current_nodes, options.target_speedup));
    }
    if (options.workload_growth > 0.0) {
      report.growth_answer = ToAnswer(planner.NodesForWorkloadGrowth(
          options.current_nodes, options.workload_growth));
    }
  }

  if (scenario.fault_aware() || options.fault_target_seconds > 0.0) {
    const core::FaultSpec& faults = scenario.faults();
    // The barrier stretch depends only on (faults, n), and each of its
    // integrals costs about a millisecond: price it once per node count.
    const std::vector<double> max_slowdown =
        core::MaxSlowdownTable(faults, max_nodes);
    const auto expected_at = [&](int n) {
      return core::ExpectedCompletionSeconds(
          faults, n, times.Seconds(n), max_slowdown[static_cast<size_t>(n)]);
    };
    if (scenario.fault_aware()) {
      report.availability = core::Availability(faults);
      const double base = times.Seconds(report.optimal_nodes);
      auto at_optimum = expected_at(report.optimal_nodes);
      if (at_optimum.ok() && base > 0.0) {
        report.expected_slowdown = at_optimum.value() / base;
      }
      // Failures shift the optimum: the system crash rate grows with n, so
      // the expected-time argmin can sit left of the fault-free one.
      // Infeasible counts (a replica takeover that cannot keep up) are
      // skipped, not errors.
      double best_seconds = 0.0;
      int best_nodes = 0;
      for (int n : report.curve.nodes) {
        auto expected = expected_at(n);
        if (!expected.ok()) continue;
        if (best_nodes == 0 || expected.value() < best_seconds) {
          best_seconds = expected.value();
          best_nodes = n;
        }
      }
      if (best_nodes > 0) report.fault_optimal_nodes = best_nodes;
      if (faults.CrashesEnabled() && faults.checkpoint_cost_s > 0.0) {
        auto interval =
            planner.OptimalCheckpointInterval(options.current_nodes, faults);
        if (interval.ok()) {
          report.optimal_checkpoint_interval_s = interval.value();
        }
      }
    }
    if (options.fault_target_seconds > 0.0) {
      report.fault_target_answer =
          ToAnswer(planner.NodesForTargetTimeUnderFaults(
              options.fault_target_seconds, faults, max_slowdown));
    }
  }

  if (scenario.serving_aware()) {
    const serve::ServingSpec& spec = scenario.serving();
    // A spec whose offered load saturates the pool fails here with the
    // Erlang-C "cannot keep up" error — saturation is an explicit answer,
    // not a silently infinite latency.
    DMLSCALE_ASSIGN_OR_RETURN(serve::ServingEstimate estimate,
                              serve::AnalyzeServing(spec));
    report.serving = estimate;
    report.serving_quantile = spec.quantile;
    core::ServingLatencyFn latency_fn = [&spec](int replicas, double qps) {
      return serve::AnalyticQuantileLatency(spec, replicas, qps);
    };
    if (spec.target_qps > 0.0) {
      report.serving_replicas_answer =
          ToAnswer(core::CapacityPlanner::ReplicasForQps(
              latency_fn, spec.target_qps, spec.target_latency_s,
              spec.max_replicas));
    }
    if (spec.target_latency_s > 0.0) {
      Result<double> rate = core::CapacityPlanner::MaxSustainableQps(
          latency_fn, spec.replicas, spec.target_latency_s,
          serve::SaturationQps(spec, spec.replicas));
      ServingRateAnswer answer;
      if (rate.ok()) {
        answer.achievable = true;
        answer.qps = rate.value();
      } else {
        answer.note = rate.status().message();
      }
      report.serving_max_qps_answer = answer;
    }
    if (options.simulate) {
      serve::ServingSimConfig sim_config;
      sim_config.spec = spec;
      sim_config.num_requests = options.serving_sim_requests;
      sim_config.warmup_requests = options.serving_sim_warmup;
      sim_config.seed = options.sim_seed;
      DMLSCALE_ASSIGN_OR_RETURN(serve::ServingSimStats sim_stats,
                                serve::SimulateServing(sim_config));
      if (sim_stats.mean_latency_s > 0.0) {
        // Apples to apples: the DES prices a dispatch + response wire hop
        // on the miss path that the closed form does not, so add the round
        // trip (weighted by the miss rate) to the analytic side.
        double analytic_mean = estimate.mean_latency_s +
                               2.0 * sim_config.wire_s * spec.cache.MissRate();
        report.serving_model_vs_sim_pct =
            100.0 * std::abs(analytic_mean - sim_stats.mean_latency_s) /
            sim_stats.mean_latency_s;
      }
      report.serving_sim = std::move(sim_stats);
    }
  }

  if (options.simulate) {
    DMLSCALE_ASSIGN_OR_RETURN(
        core::SpeedupCurve simulated,
        SimulateCurve(scenario, times, options, report.curve.nodes));
    DMLSCALE_ASSIGN_OR_RETURN(core::ValidationReport delta,
                              core::CompareCurves(report.curve, simulated));
    report.simulated = std::move(simulated);
    report.model_vs_sim_mape = delta.mape;
  }

  if (options.measured_samples != nullptr) {
    // MAPE on predicted vs measured TIMES (the paper's comparison metric).
    // Samples may lie beyond max_nodes, so this prices the scenario itself;
    // Scenario::Seconds is the same compute + comm sum as the table.
    DMLSCALE_ASSIGN_OR_RETURN(
        double mape, MapeVsSamples(scenario, *options.measured_samples));
    report.measured = *options.measured_samples;
    report.model_vs_measured_mape = mape;
  }
  return report;
}

void PrintReport(const AnalysisReport& report, std::ostream& os) {
  os << "== Scenario: " << report.scenario_name << " ==\n";
  // Only decorate contended runs: ideal-network reports must stay
  // byte-identical to the pre-network-layer output.
  if (report.contended) {
    os << "Comm: " << report.comm_label
       << " (contended fabric; simulated comm uses per-link DES)\n";
  }
  std::vector<std::string> headers{"n", "speedup", "efficiency"};
  if (report.simulated.has_value()) headers.push_back("simulated_speedup");
  if (!report.measured.empty()) headers.push_back("measured_s");
  TablePrinter table(headers);
  std::vector<double> efficiency = report.curve.Efficiency();
  for (size_t i = 0; i < report.curve.nodes.size(); ++i) {
    std::vector<std::string> row{std::to_string(report.curve.nodes[i]),
                                 FormatDouble(report.curve.speedup[i], 4),
                                 FormatDouble(efficiency[i], 4)};
    if (report.simulated.has_value()) {
      auto s = report.simulated->At(report.curve.nodes[i]);
      row.push_back(s.ok() ? FormatDouble(s.value(), 4) : "n/a");
    }
    if (!report.measured.empty()) {
      std::string cell = "n/a";
      for (const core::TimingSample& sample : report.measured) {
        if (sample.nodes == report.curve.nodes[i]) {
          cell = FormatDouble(sample.seconds, 6);
          break;
        }
      }
      row.push_back(std::move(cell));
    }
    table.AddRow(std::move(row));
  }
  table.Print(os);

  if (report.calibrated) {
    os << "Calibrated coefficients: compute x"
       << FormatDouble(report.compute_coefficient, 4) << ", comm x"
       << FormatDouble(report.comm_coefficient, 4) << "\n";
  }
  if (report.model_vs_measured_mape.has_value()) {
    os << "Model vs measured MAPE: "
       << FormatDouble(*report.model_vs_measured_mape, 3) << "%\n";
  }
  os << "t(reference) = " << FormatDouble(report.reference_seconds, 4)
     << " s; optimal nodes = " << report.optimal_nodes << " (peak speedup "
     << FormatDouble(report.peak_speedup, 4) << ", first local peak at "
     << report.first_local_peak << "); scalable: "
     << (report.scalable ? "yes" : "no") << "\n";
  if (report.model_vs_sim_mape.has_value()) {
    os << "Analytic vs simulated MAPE: "
       << FormatDouble(*report.model_vs_sim_mape, 3) << "%\n";
  }
  if (report.speedup_answer.has_value()) {
    const PlannerAnswer& q1 = *report.speedup_answer;
    os << "Q1 (machines for the requested speedup): "
       << (q1.achievable ? std::to_string(q1.nodes)
                         : "not achievable — " + q1.note)
       << "\n";
  }
  if (report.growth_answer.has_value()) {
    const PlannerAnswer& q2 = *report.growth_answer;
    os << "Q2 (machines to absorb the workload growth): "
       << (q2.achievable ? std::to_string(q2.nodes)
                         : "not achievable — " + q2.note)
       << "\n";
  }
  // Failure lines only for fault-aware scenarios: fault-free reports must
  // stay byte-identical to the pre-failure-model output.
  if (report.availability.has_value()) {
    os << "Failure model: node availability "
       << FormatDouble(*report.availability, 4);
    if (report.expected_slowdown.has_value()) {
      os << "; expected slowdown at the fault-free optimum x"
         << FormatDouble(*report.expected_slowdown, 4);
    }
    if (report.fault_optimal_nodes.has_value()) {
      os << "; failure-aware optimal nodes = " << *report.fault_optimal_nodes;
    }
    os << "\n";
  }
  if (report.optimal_checkpoint_interval_s.has_value()) {
    os << "Young/Daly checkpoint interval: "
       << FormatDouble(*report.optimal_checkpoint_interval_s, 4) << " s\n";
  }
  if (report.fault_target_answer.has_value()) {
    const PlannerAnswer& q3 = *report.fault_target_answer;
    os << "Q3 (machines for the target time under failures): "
       << (q3.achievable ? std::to_string(q3.nodes)
                         : "not achievable — " + q3.note)
       << "\n";
  }
  // Serving lines only for serving-aware scenarios: serving-free reports
  // must stay byte-identical to the pre-serving-layer output.
  if (report.serving.has_value()) {
    const serve::ServingEstimate& serving = *report.serving;
    std::string quantile_label = "p";
    quantile_label +=
        FormatDouble(report.serving_quantile.value_or(0.99) * 100.0, 4);
    os << "Serving: " << serving.queue.servers << " replicas at "
       << FormatDouble(serving.offered_qps, 4) << " offered qps; utilization "
       << FormatDouble(serving.utilization, 4) << "; mean latency "
       << FormatDouble(serving.mean_latency_s, 4) << " s; " << quantile_label
       << " latency " << FormatDouble(serving.quantile_latency_s, 4) << " s\n";
    if (serving.expected_batch > 1.0) {
      os << "Serving batching: expected batch "
         << FormatDouble(serving.expected_batch, 4) << "; added delay "
         << FormatDouble(serving.batch_delay_s, 4) << " s\n";
    }
    if (serving.hit_rate > 0.0) {
      os << "Serving cache: hit rate " << FormatDouble(serving.hit_rate, 4)
         << "; backend load " << FormatDouble(serving.backend_qps, 4)
         << " qps\n";
    }
    if (report.serving_sim.has_value() &&
        report.serving_model_vs_sim_pct.has_value()) {
      os << "Serving analytic vs DES mean latency: "
         << FormatDouble(*report.serving_model_vs_sim_pct, 3) << "% (DES "
         << quantile_label << " "
         << FormatDouble(report.serving_sim->latency.Percentile(
                report.serving_quantile.value_or(0.99)), 4)
         << " s)\n";
    }
    if (report.serving_replicas_answer.has_value()) {
      const PlannerAnswer& answer = *report.serving_replicas_answer;
      os << "Q3 (replicas for the target qps within the latency SLO): "
         << (answer.achievable ? std::to_string(answer.nodes)
                               : "not achievable — " + answer.note)
         << "\n";
    }
    if (report.serving_max_qps_answer.has_value()) {
      const ServingRateAnswer& answer = *report.serving_max_qps_answer;
      os << "Q3 (max qps within the latency SLO at the declared replicas): "
         << (answer.achievable ? FormatDouble(answer.qps, 4)
                               : "not achievable — " + answer.note)
         << "\n";
    }
  }
}

}  // namespace dmlscale::api
