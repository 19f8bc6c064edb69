#include "sim/network_sim.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "sim/event_heap.h"

namespace dmlscale::sim {

double SimulateRoundSeconds(const core::TrafficRound& round, int n,
                            const core::LinkSpec& edge,
                            const core::NetworkSpec& network) {
  DMLSCALE_CHECK_GE(n, 1);
  DMLSCALE_CHECK_GE(round.repeat, 0.0);
  if (round.flows.empty()) return 0.0;
  DMLSCALE_CHECK_GT(edge.bandwidth_bps, 0.0);
  const core::Topology& topology = network.EffectiveTopology();
  const double inflation = network.EffectiveQueue().ServiceInflation();

  // Flow f's route is hops[first[f], first[f + 1]).
  std::vector<int> hops;
  std::vector<size_t> first(round.flows.size() + 1, 0);
  for (size_t f = 0; f < round.flows.size(); ++f) {
    const core::Flow& flow = round.flows[f];
    DMLSCALE_CHECK_GE(flow.bits, 0.0);
    topology.AppendRoute(flow.src, flow.dst, n, &hops);
    first[f + 1] = hops.size();
  }
  if (hops.empty()) return 0.0;  // every flow is a local hand-off
  auto route = [&](size_t f) {
    return std::span<const int>(hops).subspan(first[f],
                                              first[f + 1] - first[f]);
  };

  const int num_links = std::max(topology.NumLinks(n), 1);
  std::vector<double> link_free(static_cast<size_t>(num_links), 0.0);
  double finish = 0.0;

  // Arrivals pop in one (time, seq) order with seq stamped at each push, so
  // simultaneous arrivals at a link are served in the order they were
  // pushed. Event: flow `a`'s head reaches hop `b` of its path at
  // event.time.
  EventHeap arrivals;
  uint64_t seq = 0;
  for (size_t f = 0; f < round.flows.size(); ++f) {
    if (route(f).empty()) continue;  // src == dst: local hand-off, free
    arrivals.Push(
        Event{.time = 0.0, .seq = seq++, .a = static_cast<int64_t>(f)});
  }
  while (!arrivals.empty()) {
    const Event event = arrivals.PopTop();
    const int flow = static_cast<int>(event.a);
    const int hop = static_cast<int>(event.b);
    const std::span<const int> path = route(static_cast<size_t>(flow));
    const int link = path[static_cast<size_t>(hop)];
    const double bandwidth =
        edge.bandwidth_bps * topology.BandwidthScale(link, n);
    DMLSCALE_CHECK_GT(bandwidth, 0.0);
    const double service =
        round.flows[static_cast<size_t>(flow)].bits / bandwidth * inflation;
    double& free_at = link_free[static_cast<size_t>(link)];
    const double start = std::max(event.time, free_at);
    free_at = start + service;
    if (hop + 1 < static_cast<int>(path.size())) {
      arrivals.Push(Event{.time = start + edge.latency_s, .seq = seq++,
                          .a = flow, .b = hop + 1});
    } else {
      finish = std::max(finish, start + service + edge.latency_s);
    }
  }
  return finish;
}

double SimulatePatternSeconds(const core::TrafficPattern& pattern, int n,
                              const core::LinkSpec& edge,
                              const core::NetworkSpec& network) {
  double total = 0.0;
  for (const core::TrafficRound& round : pattern.rounds) {
    total += round.repeat * SimulateRoundSeconds(round, n, edge, network);
  }
  return total;
}

double SimulateCommSeconds(const core::CommunicationModel& comm, int n,
                           const core::LinkSpec& edge,
                           const core::NetworkSpec& network) {
  return SimulatePatternSeconds(comm.Traffic(n), n, edge, network);
}

}  // namespace dmlscale::sim
