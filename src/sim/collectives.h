#ifndef DMLSCALE_SIM_COLLECTIVES_H_
#define DMLSCALE_SIM_COLLECTIVES_H_

#include <vector>

#include "common/status.h"
#include "core/hardware.h"
#include "sim/overhead.h"

namespace dmlscale::sim {

/// Event-driven simulations of the collective-communication protocols the
/// paper models in closed form. Each takes the time at which every node's
/// local computation finishes (`ready_times`, one per node) and returns the
/// completion time of the collective. Unlike the closed-form models, these
/// propagate stragglers and pipeline partially completed subtrees. The two
/// event-driven sims (tree reduce, tree broadcast) are plain loops over one
/// EventHeap: equal-time events run in the order they were pushed.
///
/// `bits` and every ready or start time must be finite and >= 0, the link
/// and overhead valid; anything else is InvalidArgument.

/// Binary-tree reduction to node 0. Each parent receives its children's
/// messages sequentially over its single link (`bits` each); a subtree can
/// finish before slower siblings (pipelining).
Result<double> SimulateTreeReduce(const std::vector<double>& ready_times,
                                  double bits, core::LinkSpec link,
                                  const OverheadModel& overhead);

/// Binary-tree broadcast from node 0 starting at `start_time`: a node
/// forwards to its children sequentially after receiving.
Result<double> SimulateTreeBroadcast(int num_nodes, double start_time,
                                     double bits, core::LinkSpec link,
                                     const OverheadModel& overhead);

/// Spark-style torrent broadcast: the set of nodes holding the data doubles
/// each round (peer-to-peer), giving ceil(log2 n) rounds.
Result<double> SimulateTorrentBroadcast(int num_nodes, double start_time,
                                        double bits, core::LinkSpec link,
                                        const OverheadModel& overhead);

/// Spark's two-wave aggregation (Section V-A): nodes form ceil(sqrt(n))
/// groups; group aggregators receive members' gradients sequentially
/// (wave 1), then the driver receives aggregators' results sequentially
/// (wave 2).
Result<double> SimulateTwoWaveReduce(const std::vector<double>& ready_times,
                                     double bits, core::LinkSpec link,
                                     const OverheadModel& overhead);

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_COLLECTIVES_H_
