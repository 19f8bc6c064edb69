#ifndef DMLSCALE_SIM_EVENT_ENGINE_H_
#define DMLSCALE_SIM_EVENT_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "sim/event.h"
#include "sim/event_heap.h"

namespace dmlscale {
class CyclicBarrier;
}  // namespace dmlscale

namespace dmlscale::sim {

/// How a consumer wants an engine-backed simulation executed. Defaults run
/// serially; the result is bit-identical for every shard count (the
/// engine's determinism contract), so sharding is purely a wall-clock knob.
///
/// A sharded Run steps its shards on parties that live for the whole Run:
/// the calling thread plus min(num_shards, pool threads + 1) - 1 pool tasks,
/// so it holds up to num_shards - 1 pool threads until it returns, on every
/// path. Any pool size >= 1 works; a party steps several shards when the
/// pool has fewer threads than shards. Calling Run from a task of the same
/// pool is unsupported: the parties could wait for the very thread that
/// waits for them. A window that follows one with few events steps its
/// shards one after another on the calling thread, because the barrier
/// handoffs would cost more than the window's work.
struct EngineExec {
  /// Fixed shard count the node set is partitioned into (>= 1). More than
  /// one requires a pool.
  int num_shards = 1;
  /// Pool the parties beside the caller run on (not owned). Required when
  /// num_shards > 1; ignored otherwise.
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
  /// Messages sent during Run; each is in its destination's queue by the
  /// end of the window that sent it. A Send before Run schedules at once
  /// and does not count.
  int64_t messages_delivered = 0;
};

/// The discrete-event core: typed POD event records in per-node calendar
/// queues, with an event-manager loop that steps fixed node shards through
/// clock-skew-bounded windows. A sharded Run's parties (EngineExec) meet at
/// a spin-then-block CyclicBarrier: each window is step -> barrier ->
/// deliver -> barrier.
///
/// Determinism contract: a node's state may be touched only by handlers
/// dispatched on that node; cross-node effects go through Send(). Every
/// event's key (time, window stamp, origin node, origin's counter) is
/// unique within its node's queue; each node counts the schedules made on
/// it and the sends it makes. A schedule made before Run has stamp 0; in
/// window w (from 0) a node's own schedules get stamp 2w + 2 and its sends
/// 2w + 3, with the sender as origin. Equal-time events at a node therefore
/// run in this order: schedules made before Run; then, window by window,
/// its own schedules followed by the window's messages, by src node and
/// then in send order. The key fixes that order whatever the pushes'
/// order, so Send pushes a message straight into its destination's queue
/// when both nodes share a shard. Otherwise it appends to a bucket per
/// (source shard, destination shard), which the destination's shard pushes
/// after the step barrier. Node-local event order and the ordered
/// reductions below are therefore invariant under the shard count and the
/// pool size: serial and threaded runs are bit-identical.
///
/// A node whose queue holds more than two events when it pops leaves the
/// running event on top while the handler runs, and the handler's first
/// ScheduleAt on its own node replaces it there (EventHeap::ReplaceTop):
/// one sift down instead of a pop and a push. If the handler makes no such
/// schedule, the step pops the event after the handler returns. Meanwhile
/// only later events can reach the queue, so the pop order is unchanged.
class Engine {
 public:
  /// A handler dispatches one typed event. It runs on the shard owning
  /// `event.node` and must confine itself to that node's state plus
  /// ScheduleAt on the same node / Send to any node. `event` is a copy, not
  /// the queued record: the handler's first ScheduleAt on its own node may
  /// take the event's place in the queue. It must not throw: the parties of
  /// a sharded Run cannot be released mid-window, so an exception escaping
  /// a handler ends the process.
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
  /// `now` is the sending event's time or later (or 0 before Run). During
  /// Run `delay` must be >= lookahead, so the arrival falls at or after the
  /// end of the current window (both CHECKed). Before Run, calls are
  /// serial, so a Send with any delay >= 0 schedules its event at once, in
  /// call order; such sends do not count in EngineStats::messages_delivered.
  void Send(int src, int dst, double delay, double now, int type,
            int64_t a = 0, int64_t b = 0, double x = 0.0);

  /// Drains the queues. Returns InvalidArgument for invalid options, and
  /// ResourceExhausted when the max_events guard trips: a window would take
  /// the events executed past max_events. The error names that window's
  /// start time and the events executed and sim time reached before it,
  /// all independent of the shard count. A run that would step more than
  /// 2^31 - 1 windows (the window stamps are 32 bits) is ResourceExhausted
  /// too, naming that limit. Otherwise returns the run's stats.
  /// A guard stops a run mid-window, with messages in flight, so an engine
  /// whose Run failed must not be run again.
  [[nodiscard]] Result<EngineStats> Run();

  int num_nodes() const { return num_nodes_; }

 private:
  static_assert(sizeof(Event) == 56);
  // One (source shard, destination shard) pair's sends in one window, for
  // two different shards: only the party stepping the source appends, and
  // only the party owning the destination drains it, after the step
  // barrier. Each sits on its own cache line: shards append concurrently,
  // and adjacent vector headers would share one.
  struct alignas(64) Bucket {
    std::vector<Event> events;
  };
  // One shard's nodes and window results. Inside a window only the party
  // owning the shard touches it; the caller merges the results in shard
  // order once the window's last barrier has passed.
  struct alignas(64) Shard {
    int begin = 0;  // owned nodes [begin, end)
    int end = 0;
    int64_t events = 0;      // executed this window
    int64_t sent = 0;        // messages its nodes sent this window
    double end_time = 0.0;   // latest executed event so far
    double next_time = 0.0;  // earliest pending event after delivery
    // The node whose running event is still on top of its queue, until the
    // handler's first ScheduleAt on it replaces that event (-1: none).
    int popping = -1;
    bool overflow = false;  // max_events tripped mid-window
  };
  // The current window, published by the caller before the window steps
  // (before the barrier that opens it, when the parties step it); `stop`
  // releases the parties at the end of Run.
  struct Window {
    double end = 0.0;
    int64_t budget = 0;  // events each shard may execute
    // The nodes' own schedules carry this stamp, and their sends stamp + 1:
    // 0 outside Run, 2w + 2 in window w.
    uint32_t stamp = 0;
    bool stop = false;
  };

  Status ValidateOptions() const;
  Result<EngineStats> RunWindowed();
  // The caller's loop over windows: steps each one inline or together with
  // the pool parties, and merges the shards' results.
  Result<EngineStats> StepWindows(int parties, CyclicBarrier* barrier);
  // Party `party` of `parties` steps its shards (party, party + parties,
  // ...) through the window, then delivers their incoming buckets, meeting
  // the other parties at `barrier` after each phase (none when inline).
  void StepParty(int party, int parties, CyclicBarrier* barrier) noexcept;
  // Steps one shard's nodes through [T, window_end), stopping with its
  // overflow flag set once it has executed `budget` events and more remain
  // in the window.
  void StepShard(int shard, double window_end, int64_t budget);
  // Pushes the window's messages from the shard's incoming buckets into
  // their calendar queues, then empties those buckets.
  void DeliverShard(int shard);

  int num_nodes_;
  EngineOptions options_;
  std::vector<Handler> handlers_;
  std::vector<EventHeap> queues_;   // one calendar queue per node
  std::vector<uint64_t> node_seq_;  // per node: schedules on it, its sends
  std::vector<int> node_shard_;     // the shard owning each node
  // Indexed [source shard * num_shards + destination shard].
  std::vector<Bucket> buckets_;
  std::vector<Shard> shards_;
  Window window_;
  bool running_ = false;
};

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_EVENT_ENGINE_H_
