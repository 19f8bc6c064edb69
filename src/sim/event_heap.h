#ifndef DMLSCALE_SIM_EVENT_HEAP_H_
#define DMLSCALE_SIM_EVENT_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.h"

namespace dmlscale::sim {

/// Per-node calendar queue: a binary min-heap of POD events keyed by
/// (time, seq). The engine keeps one per node (Graphite's event_heap shape),
/// so pushes and pops touch only that node's storage — which is what lets
/// shards step disjoint node sets without synchronization. Events are moved,
/// never copied through an intermediate: a POD record plus pop-into-return
/// keeps the hot loop copy-free by construction.
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

  /// Drops all events (reused across supersteps without reallocating).
  void Clear() { heap_.clear(); }

 private:
  std::vector<Event> heap_;
};

/// Indexed min-heap over nodes, keyed by each node's earliest (time, seq):
/// the "event manager" index that turns N per-node queues into one global
/// time-ordered stream in sequential mode. Update() repositions a node in
/// O(log n) after its queue's head changed; nodes with no events leave the
/// heap. With a single engine-global seq counter the resulting total order
/// is (time, ScheduleAt-call order).
class NodeClockHeap {
 public:
  explicit NodeClockHeap(int num_nodes);

  /// Re-keys `node` to (time, seq), or removes it when `has_events` is
  /// false.
  void Update(int node, double time, uint64_t seq, bool has_events);

  bool empty() const { return heap_.empty(); }

  /// Node holding the globally earliest event; undefined when empty.
  int TopNode() const { return heap_.front(); }

 private:
  struct Key {
    double time = 0.0;
    uint64_t seq = 0;
  };

  bool Earlier(int a, int b) const {
    const Key& ka = key_[static_cast<size_t>(a)];
    const Key& kb = key_[static_cast<size_t>(b)];
    if (ka.time != kb.time) return ka.time < kb.time;
    return ka.seq < kb.seq;
  }
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void Place(size_t i, int node);

  std::vector<Key> key_;      // per node, valid while in the heap
  std::vector<int32_t> pos_;  // node -> index in heap_, -1 when absent
  std::vector<int32_t> heap_;
};

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_EVENT_HEAP_H_
