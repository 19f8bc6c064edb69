// Ablation: strong vs weak scaling of the same workload, and the paper's
// Section V-A claim that logarithmic communication permits infinite weak
// scaling while linear communication only scales until communication for
// one worker exceeds its computation.

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "core/scaling.h"
#include "core/speedup.h"
#include "models/gradient_descent.h"

namespace dmlscale {
namespace {

int Run() {
  models::GdWorkload workload = models::TensorFlowInceptionWorkload();
  core::NodeSpec node = core::presets::NvidiaK40();
  core::LinkSpec link{.bandwidth_bps = 1e9};

  // Shared time function: t(n, scale) for batch scaled by `scale`. The
  // baseline batch is 64 workers' worth (8192 examples) so the single-node
  // run is compute-bound and both scaling regimes are interesting.
  auto time_fn = [&](int n, double data_scale) {
    models::GdWorkload scaled = workload;
    scaled.batch_size = 8192.0 * data_scale;
    return models::GenericGdModel(scaled, node, link).Seconds(n);
  };

  // Strong scaling keeps the input at the baseline: s(n) = t(1, 1) / t(n, 1).
  core::FunctionModel strong([&](int n) { return time_fn(n, 1.0); });
  auto strong_curve = core::SpeedupAnalyzer::Compute(strong, 256);
  auto weak_curve = core::WeakScalingStudy(time_fn).ScaledSpeedup(256);
  if (!strong_curve.ok() || !weak_curve.ok()) {
    std::cerr << "scaling study failed\n";
    return 1;
  }

  std::cout << "== Ablation: strong vs weak scaling (Inception workload) ==\n";
  TablePrinter table(
      {"n", "strong speedup", "weak (Gustafson) speedup", "weak efficiency"});
  for (int n : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    double s = strong_curve->At(n).value();
    double w = weak_curve->At(n).value();
    table.AddRow({std::to_string(n), FormatDouble(s, 4), FormatDouble(w, 4),
                  FormatDouble(w / n, 4)});
  }
  table.Print(std::cout);
  std::cout << "Strong scaling saturates (fixed batch, growing comm); weak "
               "scaling stays near-linear (Gustafson).\n\n";

  // Per-instance weak scaling: logarithmic vs linear communication.
  std::cout << "== Per-instance weak scaling: log vs linear communication ==\n";
  models::WeakScalingSgdModel log_model(workload, node, link);
  models::WeakScalingSgdModel linear_model(
      workload, node, link, models::WeakScalingSgdModel::CommShape::kLinear);
  TablePrinter shape({"n", "log-comm speedup vs n=1",
                      "linear-comm speedup vs n=1"});
  double log_ref = log_model.Seconds(1);
  double lin_ref = linear_model.Seconds(1);
  for (int n : {1, 4, 16, 64, 256, 1024, 4096}) {
    shape.AddRow({std::to_string(n),
                  FormatDouble(log_ref / log_model.Seconds(n), 4),
                  FormatDouble(lin_ref / linear_model.Seconds(n), 4)});
  }
  shape.Print(std::cout);
  // The linear model's ceiling: computation for one worker / its comm.
  double compute_one =
      workload.ops_per_example * workload.batch_size / node.EffectiveFlops();
  double comm_one = 2.0 * workload.MessageBits() / link.bandwidth_bps;
  std::cout << "Linear-comm ceiling ~ t(1)/comm_per_worker = "
            << FormatDouble(compute_one / comm_one + 1.0, 4)
            << " (speedup flattens near this value; the log model keeps "
               "growing — Section V-A).\n";
  return 0;
}

}  // namespace
}  // namespace dmlscale

int main() { return dmlscale::Run(); }
