#ifndef DMLSCALE_SIM_EVENT_HEAP_H_
#define DMLSCALE_SIM_EVENT_HEAP_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "sim/event.h"

namespace dmlscale::sim {

/// A binary min-heap of POD events keyed by (time, stamp, seq). The engine
/// keeps one per node as its calendar queue (Graphite's event_heap shape),
/// so pushes and pops touch only that node's storage — which is what lets
/// shards step disjoint node sets without synchronization. The sequential
/// sims (tree reduce and broadcast, parameter server, per-link DES) run a
/// plain loop over one heap, stamping seq from a local counter at each
/// push, so equal-time events pop in push order.
///
/// Every change is a hole-based sift: Push sifts up from a new leaf, Pop
/// and ReplaceTop sift down from the root. Each moves the events it passes
/// over into a hole and stores the event being placed once, in its final
/// slot. None reads back an event it has just written, so a load never
/// waits on a store that only partly covers it (std::push_heap re-reads
/// the element push_back has just stored). Keys are unique within a heap,
/// so the pop order is the key order std::push_heap / pop_heap give, and
/// it does not depend on the order of the pushes. ReplaceTop is the
/// classic heap replace-top (Williams, "Algorithm 232: Heapsort", CACM
/// 7(6), 1964): one sift where a Pop and a Push would take two.
class EventHeap {
 public:
  /// Inserts `event`. O(log size). Taken by value, so passing an element of
  /// this heap is safe even though the append can move the heap's storage.
  void Push(Event event) {
    size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!EventAfter{}(heap_[parent], event)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = event;
  }

  /// The earliest event; undefined when empty. O(1).
  const Event& Top() const { return heap_.front(); }

  /// Removes the earliest event. O(log size).
  void Pop() {
    DMLSCALE_CHECK(!heap_.empty());
    // The last event fills the hole at the root. The sift writes only the
    // slots below `size`, so the last slot stays intact until it is read.
    const size_t size = heap_.size() - 1;
    SiftDown(heap_[size], size);
    heap_.pop_back();
  }

  /// Removes and returns the earliest event. O(log size).
  Event PopTop() {
    DMLSCALE_CHECK(!heap_.empty());
    const Event top = Top();
    Pop();
    return top;
  }

  /// Replaces the earliest event with `event`, as Pop then Push would, in
  /// one sift down from the root. O(log size). Taken by value, so passing
  /// an element of this heap is safe.
  void ReplaceTop(Event event) {
    DMLSCALE_CHECK(!heap_.empty());
    SiftDown(event, heap_.size());
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  // Fills the hole at the root of the first `size` slots with `event`: moves
  // the earlier child up into the hole until `event` fits there.
  void SiftDown(const Event& event, size_t size) {
    size_t hole = 0;
    for (size_t child = 1; child < size; child = 2 * hole + 1) {
      if (child + 1 < size && EventAfter{}(heap_[child], heap_[child + 1])) {
        ++child;
      }
      if (!EventAfter{}(event, heap_[child])) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = event;
  }

  std::vector<Event> heap_;
};

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_EVENT_HEAP_H_
