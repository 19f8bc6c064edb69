#ifndef DMLSCALE_SIM_EVENT_H_
#define DMLSCALE_SIM_EVENT_H_

#include <cstdint>

namespace dmlscale::sim {

/// One scheduled occurrence in the event engine: a plain POD record, so the
/// hot loop moves 56 bytes through flat per-node heaps instead of allocating
/// a closure per event. Behaviour lives in per-TYPE handlers registered once
/// on the Engine; `a`, `b`, `x` are free-form payload words the handler
/// interprets.
///
/// Events at equal time run in (stamp, seq) order, and every heap keeps the
/// key (time, stamp, seq) unique, so the order in which events were pushed
/// cannot change the order in which they pop.
struct Event {
  /// Simulation time, seconds.
  double time = 0.0;
  /// First tie-break. The Engine packs the window the event was made in
  /// and the node that made it as window stamp << 32 | origin node (see
  /// event_engine.h), so shard layout cannot leak into the order; a plain
  /// EventHeap loop leaves it 0.
  uint64_t stamp = 0;
  /// Last tie-break. The Engine takes it from the origin node's counter; a
  /// plain EventHeap loop stamps it from one counter at each push, so there
  /// equal-time events run in push order.
  uint64_t seq = 0;
  /// Handler index from Engine::AddHandler.
  int32_t type = 0;
  /// Node whose calendar queue holds the event (and whose state the handler
  /// may touch).
  int32_t node = 0;
  /// Payload words: integer arguments (a worker id, a step number, ...).
  int64_t a = 0;
  int64_t b = 0;
  /// Payload double (a timestamp, a size, ...).
  double x = 0.0;
};

/// Strict-weak order "a fires after b" for min-heaps of events.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.stamp != b.stamp) return a.stamp > b.stamp;
    return a.seq > b.seq;
  }
};

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_EVENT_H_
