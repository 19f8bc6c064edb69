#ifndef DMLSCALE_SIM_EVENT_ENGINE_H_
#define DMLSCALE_SIM_EVENT_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "sim/event.h"
#include "sim/event_heap.h"

namespace dmlscale::sim {

/// How a consumer wants an engine-backed simulation executed. Defaults run
/// serially; the result is bit-identical for every shard count (the
/// engine's determinism contract), so sharding is purely a wall-clock knob.
/// A window that follows one with few events steps its shards one after
/// another on the calling thread, because the pool round trip would cost
/// more than the window's work.
struct EngineExec {
  /// Fixed shard count the node set is partitioned into (>= 1). More than
  /// one requires a pool.
  int num_shards = 1;
  /// Worker pool the shards of a large window are stepped on (not owned).
  /// Required when num_shards > 1; ignored otherwise.
  ThreadPool* pool = nullptr;
};

/// Engine construction options.
struct EngineOptions {
  /// Cross-node message lookahead, seconds: the clock-skew bound, finite
  /// and > 0 (anything else is an InvalidArgument from Run). Nodes step
  /// independently inside [T, T + lookahead) windows; every Send() during
  /// Run must have delay >= lookahead so its arrival falls in a later
  /// window.
  double lookahead = 0.0;

  /// Run guard: a self-rescheduling event chain becomes a
  /// ResourceExhausted error instead of a hang. 0 disables it.
  int64_t max_events = 0;

  EngineExec exec;
};

/// What Run() measured; every field is a pure function of the scheduled
/// events — independent of shard count and thread interleaving.
struct EngineStats {
  int64_t events_executed = 0;
  /// Time of the latest executed event (0 when none ran).
  double end_time = 0.0;
  /// Skew-bounded windows stepped.
  int64_t windows = 0;
  /// Cross-node messages delivered through the ordered mailboxes.
  int64_t messages_delivered = 0;
};

/// The discrete-event core: typed POD event records in per-node calendar
/// queues, with an event-manager loop that steps fixed node shards through
/// clock-skew-bounded windows on engine::ParallelFor.
///
/// Determinism contract: a node's state may be touched only by handlers
/// dispatched on that node; cross-node effects go through Send(), which
/// buffers into per-shard outboxes during a window. The window barrier
/// groups the outboxes by destination node, and the shard owning a
/// destination delivers its group at the start of its next step, in
/// (arrival time, src node, src send seq) order. Node-local event order,
/// delivery order, and the ordered reductions below are therefore
/// invariant under the shard count — serial and threaded runs are
/// bit-identical.
class Engine {
 public:
  /// A handler dispatches one typed event. It runs on the shard owning
  /// `event.node` and must confine itself to that node's state plus
  /// ScheduleAt on the same node / Send to any node.
  using Handler = std::function<void(const Event& event)>;

  Engine(int num_nodes, EngineOptions options);

  /// Registers a handler, returning its event-type id. Register all types
  /// before the first Schedule; handlers are shared, not per-event.
  int AddHandler(Handler handler);

  /// Schedules a node-local event at absolute `time`. From inside a
  /// handler, only the dispatching node may be targeted and `time` must not
  /// precede the current event. An out-of-range `node` is InvalidArgument —
  /// scenario code computing node ids from config data gets an actionable
  /// error instead of a CHECK abort.
  [[nodiscard]] Status ScheduleAt(int node, double time, int type,
                                  int64_t a = 0, int64_t b = 0,
                                  double x = 0.0);

  /// ScheduleAt for call sites whose node id is correct by construction
  /// (e.g. `event.node` inside a handler): CHECK-fails on error instead of
  /// returning it.
  void MustScheduleAt(int node, double time, int type, int64_t a = 0,
                      int64_t b = 0, double x = 0.0);

  /// Sends a cross-node message: an event on `dst` at `now + delay`, where
  /// `now` is the sending event's time (or 0 before Run). During Run
  /// `delay` must be >= lookahead. Before Run, calls are serial, so a Send
  /// with any delay >= 0 schedules its event at once, in call order; such
  /// sends do not count in EngineStats::messages_delivered.
  void Send(int src, int dst, double delay, double now, int type,
            int64_t a = 0, int64_t b = 0, double x = 0.0);

  /// Drains the queues. Returns InvalidArgument for invalid options, and
  /// ResourceExhausted when the max_events guard trips: a window would take
  /// the events executed past max_events. The error names that window's
  /// start time and the events executed and sim time reached before it,
  /// all independent of the shard count. Otherwise returns the run's stats.
  /// A guard stops a run mid-window, with messages in flight, so an engine
  /// whose Run failed must not be run again.
  [[nodiscard]] Result<EngineStats> Run();

  int num_nodes() const { return num_nodes_; }

 private:
  // Cross-node message, buffered from Send until its destination's shard
  // delivers it.
  struct Message {
    double time = 0.0;     // arrival time at dst
    int32_t src = 0;       // sending node: first-order tie-break
    uint64_t send_seq = 0; // per-src send counter: final tie-break
    Event event;           // event.seq stamped at delivery
  };
  // A source shard's sends in one window. Each sits on its own cache line:
  // shards append concurrently, and adjacent vector headers would share one.
  struct alignas(64) Outbox {
    std::vector<Message> messages;
  };

  Status ValidateOptions() const;
  Result<EngineStats> RunWindowed();
  // Window barrier: moves every outbox into inbox_, grouped by destination.
  // Returns the earliest arrival time (infinity when there is none).
  double GroupOutboxesByDestination();
  // Steps one shard's nodes through [T, window_end), stopping with
  // shard_overflow_ set once it has executed `budget` events and more
  // remain in the window.
  void StepShard(int shard, double window_end, int64_t budget);

  int num_nodes_;
  EngineOptions options_;
  std::vector<Handler> handlers_;
  std::vector<EventHeap> queues_;        // one calendar queue per node
  std::vector<uint64_t> node_seq_;       // per-node order
  std::vector<uint64_t> send_seq_;       // per-src mailbox key
  std::vector<Outbox> outboxes_;         // one per source shard
  // The last barrier's messages in destination-node order: node d's group
  // is inbox_[inbox_begin_[d], inbox_begin_[d + 1]), so each shard's nodes
  // own one contiguous slice. Reused across windows.
  std::vector<Message> inbox_;
  std::vector<size_t> inbox_begin_;      // num_nodes + 1 entries
  // Per-shard window results, merged in shard order at each barrier.
  std::vector<int64_t> shard_events_;
  std::vector<double> shard_end_time_;
  std::vector<double> shard_next_time_;  // min next event time in shard
  std::vector<uint8_t> shard_overflow_;  // max_events tripped mid-window
  bool running_ = false;
};

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_EVENT_ENGINE_H_
