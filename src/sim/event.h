#ifndef DMLSCALE_SIM_EVENT_H_
#define DMLSCALE_SIM_EVENT_H_

#include <cstdint>

namespace dmlscale::sim {

/// One scheduled occurrence in the event engine: a plain POD record, so the
/// hot loop moves 48 bytes through flat per-node heaps instead of allocating
/// a closure per event. Behaviour lives in per-TYPE handlers registered once
/// on the Engine; `a`, `b`, `x` are free-form payload words the handler
/// interprets.
struct Event {
  /// Simulation time, seconds.
  double time = 0.0;
  /// FIFO tie-break: events at equal time run in increasing `seq`. The
  /// Engine stamps it per node (so shard layout cannot leak into the
  /// order); a plain EventHeap loop stamps it from one counter at each
  /// push, so equal-time events run in push order.
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
    return a.seq > b.seq;
  }
};

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_EVENT_H_
