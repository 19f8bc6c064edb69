#ifndef DMLSCALE_SIM_EVENT_HEAP_H_
#define DMLSCALE_SIM_EVENT_HEAP_H_

#include <cstddef>
#include <vector>

#include "sim/event.h"

namespace dmlscale::sim {

/// A binary min-heap of POD events keyed by (time, seq). The engine keeps
/// one per node as its calendar queue (Graphite's event_heap shape), so
/// pushes and pops touch only that node's storage — which is what lets
/// shards step disjoint node sets without synchronization. The sequential
/// sims (tree reduce and broadcast, parameter server, per-link DES) run a
/// plain loop over one heap, stamping seq from a local counter at each
/// push, so equal-time events pop in push order. Events are moved, never
/// copied through an intermediate: a POD record plus pop-into-return keeps
/// the hot loop copy-free by construction.
class EventHeap {
 public:
  /// Inserts `event`. O(log size).
  void Push(const Event& event);

  /// The earliest event; undefined when empty. O(1).
  const Event& Top() const { return heap_.front(); }

  /// Removes and returns the earliest event. O(log size).
  Event PopTop();

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  std::vector<Event> heap_;
};

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_EVENT_HEAP_H_
