#include "core/queueing.h"

#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace dmlscale::core {

namespace {

void CheckWaitArgs(double other_share, double service_s) {
  DMLSCALE_CHECK_GE(other_share, 0.0);
  DMLSCALE_CHECK_LT(other_share, 1.0);
  DMLSCALE_CHECK_GE(service_s, 0.0);
}

}  // namespace

double QueueFreeModel::WaitSeconds(double other_share,
                                   double service_s) const {
  CheckWaitArgs(other_share, service_s);
  return 0.0;
}

Mm1QueueModel::Mm1QueueModel(double background) : background_(background) {
  DMLSCALE_CHECK_GE(background, 0.0);
  DMLSCALE_CHECK_LT(background, 1.0);
}

std::string Mm1QueueModel::name() const {
  if (background_ == 0.0) return "mm1";
  return "mm1(load=" + FormatDouble(background_, 2) + ")";
}

double Mm1QueueModel::WaitSeconds(double other_share,
                                  double service_s) const {
  CheckWaitArgs(other_share, service_s);
  double rho = background_ + (1.0 - background_) * other_share;
  return rho / (1.0 - rho) * service_s;
}

double Mm1QueueModel::ServiceInflation() const {
  return 1.0 / (1.0 - background_);
}

double ErlangB(int servers, double offered_load) {
  DMLSCALE_CHECK_GE(servers, 1);
  DMLSCALE_CHECK_GE(offered_load, 0.0);
  // B(j, a) = a B(j-1, a) / (j + a B(j-1, a)): every term stays in (0, 1],
  // so the recurrence never over/underflows even at k = 64, a = 60 where
  // the defining a^k / k! sum would.
  double b = 1.0;
  for (int j = 1; j <= servers; ++j) {
    b = offered_load * b / (static_cast<double>(j) + offered_load * b);
  }
  return b;
}

Result<double> ErlangC(int servers, double offered_load) {
  DMLSCALE_CHECK_GE(servers, 1);
  if (offered_load < 0.0) {
    return Status::InvalidArgument("offered load must be >= 0");
  }
  double k = static_cast<double>(servers);
  if (offered_load >= k) {
    return Status::InvalidArgument(
        "cannot keep up: offered load " + FormatDouble(offered_load, 4) +
        " >= " + std::to_string(servers) +
        " servers (utilization >= 1); add servers or shed load");
  }
  // C(1, a) = a exactly; return it verbatim so the k = 1 column of golden
  // tables is EXPECT_EQ-stable instead of carrying recurrence rounding.
  if (servers == 1) return offered_load;
  double b = ErlangB(servers, offered_load);
  return k * b / (k - offered_load * (1.0 - b));
}

double MmkMetrics::WaitQuantile(double p) const {
  DMLSCALE_CHECK_GE(p, 0.0);
  DMLSCALE_CHECK_LT(p, 1.0);
  if (p <= 1.0 - wait_probability) return 0.0;
  double drain = static_cast<double>(servers) * service_rate - arrival_rate;
  return -std::log((1.0 - p) / wait_probability) / drain;
}

double MmkMetrics::SojournTail(double t) const {
  DMLSCALE_CHECK_GE(t, 0.0);
  double mu = service_rate;
  double r = static_cast<double>(servers) * service_rate - arrival_rate;
  double c = wait_probability;
  if (mu == r) {
    // Exp(mu) + Exp(mu) is Erlang(2, mu) for the waiting fraction.
    return (1.0 - c) * std::exp(-mu * t) +
           c * std::exp(-mu * t) * (1.0 + mu * t);
  }
  return (1.0 - c) * std::exp(-mu * t) +
         c * (mu * std::exp(-r * t) - r * std::exp(-mu * t)) / (mu - r);
}

double MmkMetrics::SojournQuantile(double p) const {
  DMLSCALE_CHECK_GE(p, 0.0);
  DMLSCALE_CHECK_LT(p, 1.0);
  double target = 1.0 - p;  // solve SojournTail(t) == target
  // Bracket: the tail is 1 at t = 0 and strictly decreasing; double an
  // upper bound from the mean until it crosses.
  double hi = mean_sojourn_s > 0.0 ? mean_sojourn_s : 1.0 / service_rate;
  for (int i = 0; i < 128 && SojournTail(hi) > target; ++i) hi *= 2.0;
  double lo = 0.0;
  // Fixed iteration count: deterministic to the last bit for any input.
  for (int i = 0; i < 200; ++i) {
    double mid = 0.5 * (lo + hi);
    if (SojournTail(mid) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

Result<MmkMetrics> AnalyzeMmk(int servers, double arrival_rate,
                              double service_rate) {
  if (servers < 1) return Status::InvalidArgument("servers must be >= 1");
  if (arrival_rate <= 0.0) {
    return Status::InvalidArgument("arrival rate must be > 0");
  }
  if (service_rate <= 0.0) {
    return Status::InvalidArgument("service rate must be > 0");
  }
  double offered = arrival_rate / service_rate;
  MmkMetrics m;
  m.servers = servers;
  m.arrival_rate = arrival_rate;
  m.service_rate = service_rate;
  m.utilization = offered / static_cast<double>(servers);
  DMLSCALE_ASSIGN_OR_RETURN(m.wait_probability, ErlangC(servers, offered));
  double drain = static_cast<double>(servers) * service_rate - arrival_rate;
  m.mean_wait_s = m.wait_probability / drain;
  m.mean_sojourn_s = m.mean_wait_s + 1.0 / service_rate;
  m.mean_queue_length = arrival_rate * m.mean_wait_s;
  return m;
}

Status BatchServiceModel::Validate() const {
  if (!std::isfinite(fixed_s) || fixed_s < 0.0) {
    return Status::InvalidArgument(
        "batch fixed cost (fixed_s) must be finite and >= 0");
  }
  if (!std::isfinite(per_item_s) || per_item_s <= 0.0) {
    return Status::InvalidArgument(
        "batch per-item cost (per_item_s) must be finite and > 0");
  }
  return Status::OK();
}

double BatchServiceModel::Latency(int batch) const {
  DMLSCALE_CHECK_GE(batch, 1);
  return fixed_s + static_cast<double>(batch) * per_item_s;
}

double BatchServiceModel::Throughput(int batch) const {
  return static_cast<double>(batch) / Latency(batch);
}

Result<int> BatchServiceModel::LargestBatchWithin(double budget_s,
                                                  int max_batch) const {
  DMLSCALE_CHECK_GE(max_batch, 1);
  if (budget_s <= 0.0) {
    return Status::InvalidArgument("latency budget must be > 0");
  }
  if (Latency(1) > budget_s) {
    return Status::InvalidArgument(
        "even batch size 1 takes " + FormatDouble(Latency(1), 4) +
        " s > budget " + FormatDouble(budget_s, 4) +
        " s; relax the budget or use faster hardware");
  }
  // Latency is affine increasing in b, so the largest feasible batch is
  // floor((budget - fixed) / per_item), clamped to [1, max_batch].
  double feasible = std::floor((budget_s - fixed_s) / per_item_s);
  if (feasible < 1.0) return 1;
  if (feasible > static_cast<double>(max_batch)) return max_batch;
  return static_cast<int>(feasible);
}

}  // namespace dmlscale::core
