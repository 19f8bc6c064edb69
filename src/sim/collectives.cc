#include "sim/collectives.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/math_util.h"
#include "sim/event_heap.h"

namespace dmlscale::sim {

namespace {

/// Input checks shared by every collective. `start_times` are the instants
/// the collective starts from: each node's ready time, or the broadcast's
/// start time.
Status CheckCommon(size_t num_nodes, std::span<const double> start_times,
                   double bits, const core::LinkSpec& link,
                   const OverheadModel& overhead) {
  if (num_nodes < 1) return Status::InvalidArgument("need >= 1 node");
  for (double time : start_times) {
    DMLSCALE_RETURN_NOT_OK(CheckFiniteNonNegative("start time", time));
  }
  DMLSCALE_RETURN_NOT_OK(CheckFiniteNonNegative("bits", bits));
  DMLSCALE_RETURN_NOT_OK(link.Validate());
  return overhead.Validate();
}

/// One point-to-point transfer duration including serialization.
double TransferSeconds(double bits, const core::LinkSpec& link,
                       const OverheadModel& overhead) {
  return bits / link.bandwidth_bps + link.latency_s +
         overhead.serialize_s_per_bit * bits;
}

}  // namespace

Result<double> SimulateTreeReduce(const std::vector<double>& ready_times,
                                  double bits, core::LinkSpec link,
                                  const OverheadModel& overhead) {
  DMLSCALE_RETURN_NOT_OK(
      CheckCommon(ready_times.size(), ready_times, bits, link, overhead));
  int n = static_cast<int>(ready_times.size());
  if (n == 1) return ready_times[0];

  // Heap-indexed binary tree: node i has children 2i+1, 2i+2. A node can
  // send upward once its own work and all child receptions are complete.
  // Parents receive sequentially over one link (link_busy).
  double transfer = TransferSeconds(bits, link, overhead);
  std::vector<int> pending_children(static_cast<size_t>(n), 0);
  std::vector<double> up_ready = ready_times;  // when node may send upward
  std::vector<double> link_busy(static_cast<size_t>(n), 0.0);
  double completion = 0.0;

  for (int i = 0; i < n; ++i) {
    int kids = 0;
    if (2 * i + 1 < n) ++kids;
    if (2 * i + 2 < n) ++kids;
    pending_children[static_cast<size_t>(i)] = kids;
  }

  // Events pop in one (time, seq) order with seq stamped at each push, so
  // the link reservations below happen in a fixed order. kStart: leaf
  // `node` is ready to send; kReceived: `node` finishes receiving a child's
  // message.
  constexpr int32_t kStart = 0;
  constexpr int32_t kReceived = 1;
  EventHeap events;
  uint64_t seq = 0;
  for (int i = 0; i < n; ++i) {
    if (pending_children[static_cast<size_t>(i)] == 0) {
      events.Push(Event{.time = ready_times[static_cast<size_t>(i)],
                        .seq = seq++, .type = kStart, .node = i});
    }
  }
  while (!events.empty()) {
    const Event event = events.PopTop();
    const int node = event.node;
    if (event.type == kReceived) {
      up_ready[static_cast<size_t>(node)] =
          std::max(up_ready[static_cast<size_t>(node)], event.time);
      if (--pending_children[static_cast<size_t>(node)] > 0) continue;
    }
    // `node` is ready to send upward.
    if (node == 0) {
      completion = std::max(completion, up_ready[0]);
      continue;
    }
    int parent = (node - 1) / 2;
    // Reception occupies the parent's link; sequential per parent.
    double start = std::max(up_ready[static_cast<size_t>(node)],
                            link_busy[static_cast<size_t>(parent)]);
    double done = start + transfer;
    link_busy[static_cast<size_t>(parent)] = done;
    events.Push(
        Event{.time = done, .seq = seq++, .type = kReceived, .node = parent});
  }
  return completion;
}

Result<double> SimulateTreeBroadcast(int num_nodes, double start_time,
                                     double bits, core::LinkSpec link,
                                     const OverheadModel& overhead) {
  DMLSCALE_RETURN_NOT_OK(
      CheckCommon(static_cast<size_t>(std::max(num_nodes, 0)),
                  {&start_time, 1}, bits, link, overhead));
  if (num_nodes == 1) return start_time;

  double transfer = TransferSeconds(bits, link, overhead);
  double completion = start_time;
  // Event: `node` holds the payload at event.time and forwards to its
  // children sequentially over its own link.
  EventHeap events;
  uint64_t seq = 0;
  events.Push(Event{.time = start_time, .seq = seq++, .node = 0});
  while (!events.empty()) {
    const Event event = events.PopTop();
    const int node = event.node;
    completion = std::max(completion, event.time);
    double busy = event.time;
    for (int child : {2 * node + 1, 2 * node + 2}) {
      if (child >= num_nodes) continue;
      busy += transfer;
      events.Push(Event{.time = busy, .seq = seq++, .node = child});
    }
  }
  return completion;
}

Result<double> SimulateTorrentBroadcast(int num_nodes, double start_time,
                                        double bits, core::LinkSpec link,
                                        const OverheadModel& overhead) {
  DMLSCALE_RETURN_NOT_OK(
      CheckCommon(static_cast<size_t>(std::max(num_nodes, 0)),
                  {&start_time, 1}, bits, link, overhead));
  if (num_nodes == 1) return start_time;
  // Holders double each round: ceil(log2 n) rounds of one transfer each.
  double transfer = TransferSeconds(bits, link, overhead);
  int rounds = CeilLog2(static_cast<uint64_t>(num_nodes));
  return start_time + static_cast<double>(rounds) * transfer;
}

Result<double> SimulateTwoWaveReduce(const std::vector<double>& ready_times,
                                     double bits, core::LinkSpec link,
                                     const OverheadModel& overhead) {
  DMLSCALE_RETURN_NOT_OK(
      CheckCommon(ready_times.size(), ready_times, bits, link, overhead));
  int n = static_cast<int>(ready_times.size());
  if (n == 1) return ready_times[0];

  double transfer = TransferSeconds(bits, link, overhead);
  int num_groups = static_cast<int>(CeilSqrt(static_cast<uint64_t>(n)));

  // Wave 1: member j of group g sends to the group aggregator (the member
  // with the lowest index); aggregators receive sequentially.
  std::vector<double> aggregator_done;
  for (int g = 0; g < num_groups; ++g) {
    double agg_ready = -1.0;
    double busy = 0.0;
    bool first = true;
    for (int i = g; i < n; i += num_groups) {
      if (first) {
        agg_ready = ready_times[static_cast<size_t>(i)];
        busy = agg_ready;
        first = false;
        continue;
      }
      double start = std::max(ready_times[static_cast<size_t>(i)], busy);
      busy = start + transfer;
    }
    if (!first) aggregator_done.push_back(std::max(agg_ready, busy));
  }

  // Wave 2: the driver receives each aggregator's partial sequentially.
  std::sort(aggregator_done.begin(), aggregator_done.end());
  double busy = 0.0;
  for (double ready : aggregator_done) {
    double start = std::max(ready, busy);
    busy = start + transfer;
  }
  return busy;
}

}  // namespace dmlscale::sim
