// Extension bench (Section VI future work): the feedback loop from
// experiments. The a-priori Fig. 2 model assumes 80% of peak FLOPS and the
// nominal network bandwidth; here a "cluster" (the simulator with hidden
// deviations) produces a handful of timing samples, the calibrator fits
// the compute and communication coefficients, and the calibrated model
// predicts held-out node counts far better than the a-priori one.

#include <cmath>
#include <iostream>

#include "api/api.h"
#include "bench_util.h"
#include "models/gradient_descent.h"
#include "sim/workloads.h"

namespace dmlscale {
namespace {

int Run() {
  models::GdWorkload workload = models::SparkMnistWorkload();
  core::NodeSpec assumed_node = core::presets::XeonE3_1240Double();
  core::LinkSpec assumed_link{.bandwidth_bps = 1e9};
  auto apriori =
      api::Scenario::Builder()
          .Hardware(assumed_node)
          .Link(assumed_link)
          .Compute("perfectly-parallel",
                   {{"total_flops",
                     workload.ops_per_example * workload.batch_size}})
          .Comm("spark-gd", {{"bits", workload.MessageBits()}})
          .Build();
  if (!apriori.ok()) {
    std::cerr << apriori.status() << "\n";
    return 1;
  }

  // The "real" cluster is 25% slower per node and has 20% less usable
  // bandwidth than the spec sheet — the calibrator must discover this.
  core::NodeSpec real_node = assumed_node;
  real_node.efficiency = 0.8 * 0.75;
  core::LinkSpec real_link{.bandwidth_bps = 0.8e9};
  sim::GdSimConfig cluster{
      .total_ops = workload.ops_per_example * workload.batch_size,
      .message_bits = workload.MessageBits(),
      .node = real_node,
      .link = real_link,
      .overhead = sim::OverheadModel::None(),
      .iterations = 2};

  // Measure a few small configurations only (cheap probes).
  std::vector<core::TimingSample> samples;
  Pcg32 rng(5);
  for (int n : {1, 2, 3, 4, 6}) {
    auto t = sim::SimulateSparkGdIteration(cluster, n, &rng);
    if (!t.ok()) {
      std::cerr << t.status() << "\n";
      return 1;
    }
    samples.push_back({n, t.value()});
  }

  // The steps api::Calibrate takes, on samples drawn from this driver's
  // own simulated cluster.
  auto fit = core::FitLinearModel(
      {[&apriori](int n) { return apriori->ComputeSeconds(n); },
       [&apriori](int n) { return apriori->CommSeconds(n); }},
      samples);
  if (!fit.ok()) {
    std::cerr << fit.status() << "\n";
    return 1;
  }
  api::Scenario calibrated =
      apriori->Calibrated(fit->coefficients[0], fit->coefficients[1]);

  std::cout << "== Calibration feedback loop (Fig. 2 workload) ==\n"
            << "Fitted coefficients: compute x"
            << FormatDouble(calibrated.compute_coefficient(), 4)
            << " (hidden truth: 1.333), comm x"
            << FormatDouble(calibrated.comm_coefficient(), 4)
            << " (absorbs both the 20% bandwidth loss and the two-wave\n"
            << "protocol's pipelining, which the closed form overstates)\n\n";

  TablePrinter table({"n (held out)", "cluster s", "a-priori model s",
                      "calibrated model s"});
  std::vector<double> apriori_err, calibrated_err;
  for (int n : {8, 9, 12, 16}) {
    auto t = sim::SimulateSparkGdIteration(cluster, n, &rng);
    if (!t.ok()) {
      std::cerr << t.status() << "\n";
      return 1;
    }
    double actual = t.value();
    double apriori_t = apriori->Seconds(n);
    double calibrated_t = calibrated.Seconds(n);
    apriori_err.push_back(std::fabs(apriori_t - actual) / actual);
    calibrated_err.push_back(std::fabs(calibrated_t - actual) / actual);
    table.AddRow({std::to_string(n), FormatDouble(actual, 4),
                  FormatDouble(apriori_t, 4), FormatDouble(calibrated_t, 4)});
  }
  table.Print(std::cout);

  double apriori_mape = 0.0, calibrated_mape = 0.0;
  for (double e : apriori_err) apriori_mape += e;
  for (double e : calibrated_err) calibrated_mape += e;
  apriori_mape *= 100.0 / apriori_err.size();
  calibrated_mape *= 100.0 / calibrated_err.size();
  std::cout << "\nHeld-out MAPE: a-priori "
            << FormatDouble(apriori_mape, 3) << "% -> calibrated "
            << FormatDouble(calibrated_mape, 3)
            << "%\nFive cheap probe runs recover the hidden efficiency "
               "loss without abandoning\nthe model's structure — the "
               "feedback loop Section VI proposes.\n";
  return 0;
}

}  // namespace
}  // namespace dmlscale

int main() { return dmlscale::Run(); }
