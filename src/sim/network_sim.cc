#include "sim/network_sim.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/event_engine.h"

namespace dmlscale::sim {

namespace {

/// A flow's head arriving at its next hop. Ordered by (time, seq): seq is
/// assigned monotonically at push, so simultaneous arrivals are served in
/// push order — deterministic FIFO regardless of heap internals.
struct Arrival {
  double time = 0.0;
  uint64_t seq = 0;
  int flow = 0;
  int hop = 0;
};

struct LaterArrival {
  bool operator()(const Arrival& a, const Arrival& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Legacy (local priority_queue) reference implementation, retained during
/// the engine migration; same (time, push-order) event order as the engine
/// port below.
double RoundSecondsLegacy(const core::TrafficRound& round,
                          const std::vector<std::vector<int>>& paths,
                          const core::Topology& topology, int n,
                          const core::LinkSpec& edge, double inflation) {
  std::vector<double> link_free(static_cast<size_t>(topology.NumLinks(n)),
                                0.0);
  std::priority_queue<Arrival, std::vector<Arrival>, LaterArrival> events;
  uint64_t seq = 0;
  for (size_t f = 0; f < round.flows.size(); ++f) {
    if (paths[f].empty()) continue;  // src == dst: local hand-off, free
    events.push(Arrival{0.0, seq++, static_cast<int>(f), 0});
  }

  double finish = 0.0;
  while (!events.empty()) {
    const Arrival arrival = events.top();
    events.pop();
    const std::vector<int>& path = paths[static_cast<size_t>(arrival.flow)];
    const int link = path[static_cast<size_t>(arrival.hop)];
    const double bandwidth = edge.bandwidth_bps *
                             topology.BandwidthScale(link, n);
    DMLSCALE_CHECK_GT(bandwidth, 0.0);
    const double service =
        round.flows[static_cast<size_t>(arrival.flow)].bits / bandwidth *
        inflation;
    double& free_at = link_free[static_cast<size_t>(link)];
    const double start = std::max(arrival.time, free_at);
    free_at = start + service;
    if (arrival.hop + 1 < static_cast<int>(path.size())) {
      events.push(
          Arrival{start + edge.latency_s, seq++, arrival.flow,
                  arrival.hop + 1});
    } else {
      finish = std::max(finish, start + service + edge.latency_s);
    }
  }
  return finish;
}

/// Engine port: one engine node per fabric link, sequential mode. The
/// engine's global seq is assigned in ScheduleAt call order — the same
/// order the legacy code pushed Arrivals — so the event order, and with
/// identical arithmetic the result, is bit-identical.
double RoundSecondsEngine(const core::TrafficRound& round,
                          const std::vector<std::vector<int>>& paths,
                          const core::Topology& topology, int n,
                          const core::LinkSpec& edge, double inflation) {
  bool any = false;
  for (const std::vector<int>& path : paths) {
    if (!path.empty()) any = true;
  }
  if (!any) return 0.0;

  const int num_links = std::max(topology.NumLinks(n), 1);
  std::vector<double> link_free(static_cast<size_t>(num_links), 0.0);
  double finish = 0.0;

  Engine engine(num_links, EngineOptions{});  // sequential mode
  // Event on node `link`: flow `a`'s head reaches hop `b` at event.time.
  int arrive_type = -1;
  arrive_type = engine.AddHandler([&](const Event& event) {
    const int flow = static_cast<int>(event.a);
    const int hop = static_cast<int>(event.b);
    const std::vector<int>& path = paths[static_cast<size_t>(flow)];
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
      const int next_link = path[static_cast<size_t>(hop) + 1];
      engine.MustScheduleAt(next_link, start + edge.latency_s, arrive_type, flow,
                        hop + 1);
    } else {
      finish = std::max(finish, start + service + edge.latency_s);
    }
  });
  for (size_t f = 0; f < round.flows.size(); ++f) {
    if (paths[f].empty()) continue;
    engine.MustScheduleAt(paths[f][0], 0.0, arrive_type, static_cast<int>(f), 0);
  }
  Result<EngineStats> run = engine.Run();
  DMLSCALE_CHECK(run.ok());
  return finish;
}

}  // namespace

double SimulateRoundSeconds(const core::TrafficRound& round, int n,
                            const core::LinkSpec& edge,
                            const core::NetworkSpec& network,
                            SimBackend backend) {
  DMLSCALE_CHECK_GE(n, 1);
  DMLSCALE_CHECK_GE(round.repeat, 0.0);
  if (round.flows.empty()) return 0.0;
  DMLSCALE_CHECK_GT(edge.bandwidth_bps, 0.0);
  const core::Topology& topology = network.EffectiveTopology();
  const double inflation = network.EffectiveQueue().ServiceInflation();

  std::vector<std::vector<int>> paths(round.flows.size());
  for (size_t f = 0; f < round.flows.size(); ++f) {
    const core::Flow& flow = round.flows[f];
    DMLSCALE_CHECK_GE(flow.bits, 0.0);
    topology.AppendRoute(flow.src, flow.dst, n, &paths[f]);
  }

  if (backend == SimBackend::kLegacy) {
    return RoundSecondsLegacy(round, paths, topology, n, edge, inflation);
  }
  return RoundSecondsEngine(round, paths, topology, n, edge, inflation);
}

double SimulatePatternSeconds(const core::TrafficPattern& pattern, int n,
                              const core::LinkSpec& edge,
                              const core::NetworkSpec& network,
                              SimBackend backend) {
  double total = 0.0;
  for (const core::TrafficRound& round : pattern.rounds) {
    total += round.repeat *
             SimulateRoundSeconds(round, n, edge, network, backend);
  }
  return total;
}

double SimulateCommSeconds(const core::CommunicationModel& comm, int n,
                           const core::LinkSpec& edge,
                           const core::NetworkSpec& network,
                           SimBackend backend) {
  return SimulatePatternSeconds(comm.Traffic(n), n, edge, network, backend);
}

}  // namespace dmlscale::sim
