#include "sim/collectives.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/math_util.h"
#include "sim/event_engine.h"

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

  // Sequential mode: events run in one global (time, ScheduleAt-call)
  // order, so the link reservations below happen in a fixed order.
  Engine engine(n, EngineOptions{});
  int recv_type = -1;
  auto send_up = [&](int node) {
    if (node == 0) {
      completion = std::max(completion, up_ready[0]);
      return;
    }
    int parent = (node - 1) / 2;
    // Reception occupies the parent's link; sequential per parent.
    double start = std::max(up_ready[static_cast<size_t>(node)],
                            link_busy[static_cast<size_t>(parent)]);
    double done = start + transfer;
    link_busy[static_cast<size_t>(parent)] = done;
    // Event: `parent` finishes receiving a child's message at `done`.
    engine.MustScheduleAt(parent, done, recv_type, 0, 0, done);
  };
  recv_type = engine.AddHandler([&](const Event& event) {
    int parent = event.node;
    up_ready[static_cast<size_t>(parent)] =
        std::max(up_ready[static_cast<size_t>(parent)], event.x);
    if (--pending_children[static_cast<size_t>(parent)] == 0) {
      send_up(parent);
    }
  });
  int start_type =
      engine.AddHandler([&](const Event& event) { send_up(event.node); });

  for (int i = 0; i < n; ++i) {
    if (pending_children[static_cast<size_t>(i)] == 0) {
      engine.MustScheduleAt(i, ready_times[static_cast<size_t>(i)], start_type);
    }
  }
  DMLSCALE_RETURN_NOT_OK(engine.Run().status());
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
  Engine engine(num_nodes, EngineOptions{});  // sequential mode
  // Event: `node` holds the payload at event.x and forwards to its children
  // sequentially over its own link.
  int deliver_type = -1;
  deliver_type = engine.AddHandler([&](const Event& event) {
    int node = event.node;
    double at = event.x;
    completion = std::max(completion, at);
    double busy = at;
    for (int child : {2 * node + 1, 2 * node + 2}) {
      if (child >= num_nodes) continue;
      busy += transfer;
      double arrive = busy;
      engine.MustScheduleAt(child, arrive, deliver_type, 0, 0, arrive);
    }
  });

  engine.MustScheduleAt(0, start_time, deliver_type, 0, 0, start_time);
  DMLSCALE_RETURN_NOT_OK(engine.Run().status());
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
