#include "core/network.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.h"

namespace dmlscale::core {

namespace {

const Topology& IdealSwitchSingleton() {
  static const IdealSwitchTopology* topology = new IdealSwitchTopology();
  return *topology;
}

const QueueModel& QueueFreeSingleton() {
  static const QueueFreeModel* queue = new QueueFreeModel();
  return *queue;
}

}  // namespace

std::string NetworkSpec::Decoration() const {
  if (Ideal()) return "";
  std::string out = "@";
  out += EffectiveTopology().name();
  out += "/";
  out += EffectiveQueue().name();
  return out;
}

const Topology& NetworkSpec::EffectiveTopology() const {
  return topology != nullptr ? *topology : IdealSwitchSingleton();
}

const QueueModel& NetworkSpec::EffectiveQueue() const {
  return queue != nullptr ? *queue : QueueFreeSingleton();
}

double RoundSeconds(const TrafficRound& round, int n, const LinkSpec& edge,
                    const NetworkSpec& network) {
  DMLSCALE_CHECK_GE(n, 1);
  DMLSCALE_CHECK_GT(edge.bandwidth_bps, 0.0);
  DMLSCALE_CHECK_GE(round.repeat, 0.0);
  const Topology& topology = network.EffectiveTopology();
  const QueueModel& queue = network.EffectiveQueue();

  // Route every flow once; accumulate per-link offered load. Flow f's
  // route is hops[first[f], first[f + 1]).
  std::vector<double> load(static_cast<size_t>(topology.NumLinks(n)), 0.0);
  std::vector<int> hops;
  std::vector<size_t> first(round.flows.size() + 1, 0);
  auto route = [&](size_t f) {
    return std::span<const int>(hops).subspan(first[f],
                                              first[f + 1] - first[f]);
  };
  for (size_t f = 0; f < round.flows.size(); ++f) {
    const Flow& flow = round.flows[f];
    DMLSCALE_CHECK_GE(flow.bits, 0.0);
    topology.AppendRoute(flow.src, flow.dst, n, &hops);
    first[f + 1] = hops.size();
    for (int link : route(f)) load[static_cast<size_t>(link)] += flow.bits;
  }

  double slowest = 0.0;
  for (size_t f = 0; f < round.flows.size(); ++f) {
    const Flow& flow = round.flows[f];
    const std::span<const int> path = route(f);
    if (path.empty()) continue;  // local hand-off
    double bottleneck = 0.0;
    for (int link : path) {
      double bandwidth =
          edge.bandwidth_bps * topology.BandwidthScale(link, n);
      double service = flow.bits / bandwidth;
      double link_load = load[static_cast<size_t>(link)];
      // Share of this link's drain owed to OTHER flows of the round; a
      // lone flow waits only for the queue model's background traffic.
      double other_share =
          link_load > 0.0 ? (link_load - flow.bits) / link_load : 0.0;
      double wait = queue.WaitSeconds(other_share, service);
      bottleneck = std::max(bottleneck, service + wait);
    }
    const double path_hops = static_cast<double>(path.size());
    slowest = std::max(slowest, bottleneck + path_hops * edge.latency_s);
  }
  return round.repeat * slowest;
}

double PatternSeconds(const TrafficPattern& pattern, int n,
                      const LinkSpec& edge, const NetworkSpec& network) {
  double total = 0.0;
  for (const TrafficRound& round : pattern.rounds) {
    total += RoundSeconds(round, n, edge, network);
  }
  return total;
}

}  // namespace dmlscale::core
