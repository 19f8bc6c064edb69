#include "models/graphical_inference.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/check.h"

namespace dmlscale::models {

double BpOperationsPerEdge(int states) {
  DMLSCALE_CHECK_GE(states, 1);
  double s = static_cast<double>(states);
  return s + 2.0 * (s + s * s);
}

double AnalyticDuplicateEdges(double num_vertices, double num_edges, int n) {
  DMLSCALE_CHECK_GT(num_vertices, 1.0);
  DMLSCALE_CHECK_GE(num_edges, 0.0);
  DMLSCALE_CHECK_GE(n, 1);
  double v_per_worker = num_vertices / static_cast<double>(n);
  double edge_prob = num_edges / (num_vertices * (num_vertices - 1.0) / 2.0);
  return 0.5 * (v_per_worker - 1.0) * v_per_worker * edge_prob;
}

Result<EdgeBalance> MonteCarloEdgeBalance(const std::vector<int64_t>& degrees,
                                          int n, int trials, Pcg32* rng) {
  if (degrees.empty()) return Status::InvalidArgument("empty degree sequence");
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (trials < 1) return Status::InvalidArgument("trials must be >= 1");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  double num_vertices = static_cast<double>(degrees.size());
  double degree_sum = 0.0;
  for (int64_t d : degrees) {
    if (d < 0) return Status::InvalidArgument("negative degree");
    degree_sum += static_cast<double>(d);
  }
  double num_edges = degree_sum / 2.0;
  double dup = AnalyticDuplicateEdges(num_vertices, num_edges, n);

  double max_acc = 0.0;
  std::vector<double> load(static_cast<size_t>(n));
  for (int t = 0; t < trials; ++t) {
    std::fill(load.begin(), load.end(), 0.0);
    for (int64_t d : degrees) {
      uint32_t w = rng->NextBounded(static_cast<uint32_t>(n));
      load[w] += static_cast<double>(d);
    }
    double trial_max = 0.0;
    for (double e_rnd : load) {
      // E_i = Ernd_i - Edup (Section IV-B).
      trial_max = std::max(trial_max, e_rnd - dup);
    }
    max_acc += trial_max;
  }
  EdgeBalance balance;
  balance.max_edges = max_acc / static_cast<double>(trials);
  balance.mean_edges = degree_sum / static_cast<double>(n) - dup;
  return balance;
}

std::function<double(int)> MemoizedMonteCarloMaxEdges(
    std::vector<int64_t> degrees, int trials, uint64_t seed) {
  auto cache = std::make_shared<std::map<int, double>>();
  auto degrees_ptr =
      std::make_shared<std::vector<int64_t>>(std::move(degrees));
  return [cache, degrees_ptr, trials, seed](int n) {
    auto it = cache->find(n);
    if (it != cache->end()) return it->second;
    Pcg32 rng(seed, static_cast<uint64_t>(n));
    auto balance = MonteCarloEdgeBalance(*degrees_ptr, n, trials, &rng);
    DMLSCALE_CHECK_MSG(balance.ok(), "Monte-Carlo estimation failed");
    double value = balance.value().max_edges;
    (*cache)[n] = value;
    return value;
  };
}

}  // namespace dmlscale::models
