#ifndef DMLSCALE_SIM_NETWORK_SIM_H_
#define DMLSCALE_SIM_NETWORK_SIM_H_

#include "core/communication_model.h"
#include "core/hardware.h"
#include "core/network.h"
#include "core/topology.h"

namespace dmlscale::sim {

/// Discrete-event pricing of one collective round on a contended fabric:
/// every flow is routed over the topology, links serve flows FIFO in
/// arrival order (ties in push order, no randomness), and messages
/// cut through — the head moves to the next hop after the wire latency
/// while the link stays busy for the full service time. The round completes
/// when its last flow is delivered:
///
///   delivery = last-hop transmission start + service + latency
///
/// Queueing is EMERGENT here (flows physically wait for busy links), so the
/// QueueModel contributes only ServiceInflation() — exogenous background
/// utilization stretching every transmission. On a single-bottleneck round
/// this reproduces core::RoundSeconds' analytic M/M/1 value exactly; on
/// multi-hop patterns the two diverge by whatever pipelining the closed
/// form cannot see (the sweep cross-checks they stay within 15% MAPE).
double SimulateRoundSeconds(const core::TrafficRound& round, int n,
                            const core::LinkSpec& edge,
                            const core::NetworkSpec& network);

/// Sum of SimulateRoundSeconds over the pattern's rounds (BSP barrier
/// between rounds), each scaled by its repeat weight: a repeated round is
/// simulated once.
double SimulatePatternSeconds(const core::TrafficPattern& pattern, int n,
                              const core::LinkSpec& edge,
                              const core::NetworkSpec& network);

/// SimulatePatternSeconds over `comm.Traffic(n)`.
double SimulateCommSeconds(const core::CommunicationModel& comm, int n,
                           const core::LinkSpec& edge,
                           const core::NetworkSpec& network);

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_NETWORK_SIM_H_
