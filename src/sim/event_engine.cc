#include "sim/event_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/barrier.h"
#include "common/check.h"
#include "engine/parallel_for.h"

namespace dmlscale::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A window that follows one with fewer events than this steps its shards
// one after another on the caller: below it, the barrier handoffs cost more
// than the window's work. Results are shard-invariant either way.
constexpr int64_t kInlineWindowEvents = 2048;

// A queue holding at most this many events when its node pops pops before
// the handler runs. From two events a pop moves one event, so deferring it
// for a ReplaceTop saves no sift. The ring's queues hold at most two at
// every pop but 270 of 10,010,000, and deferring every pop read 10-13%
// slower on sim_scale's serial 10k ring, in default and in 64-byte-aligned
// builds. The gate is not free: on the serial 10k PS row, whose server
// queue is deep but never replaces, deferring every pop read 1-7% faster.
constexpr size_t kPopFirstMaxEvents = 2;

// Window w's sends carry stamp 2w + 3, which must fit in 32 bits.
constexpr int64_t kMaxWindows = (int64_t{1} << 31) - 1;

// Event::stamp of an event made by `origin` under window stamp `stamp`.
uint64_t PackStamp(uint32_t stamp, int origin) {
  return uint64_t{stamp} << 32 | static_cast<uint32_t>(origin);
}

}  // namespace

Engine::Engine(int num_nodes, EngineOptions options)
    : num_nodes_(num_nodes), options_(options) {
  DMLSCALE_CHECK_GE(num_nodes, 1);
  const size_t nodes = static_cast<size_t>(num_nodes);
  queues_.resize(nodes);
  node_seq_.assign(nodes, 0);
  // Run rejects num_shards < 1 before any Send can reach a bucket.
  const int num_shards = std::max(options_.exec.num_shards, 1);
  node_shard_.resize(nodes);
  shards_.resize(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const engine::ShardRange range =
        engine::ComputeShard(0, num_nodes, num_shards, s);
    Shard& shard = shards_[static_cast<size_t>(s)];
    shard.begin = static_cast<int>(range.begin);
    shard.end = static_cast<int>(range.end);
    std::fill(node_shard_.begin() + range.begin,
              node_shard_.begin() + range.end, s);
  }
  buckets_.resize(static_cast<size_t>(num_shards) *
                  static_cast<size_t>(num_shards));
}

Status Engine::ValidateOptions() const {
  if (!std::isfinite(options_.lookahead) || options_.lookahead <= 0.0) {
    return Status::InvalidArgument("lookahead must be finite and > 0");
  }
  if (options_.exec.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options_.exec.num_shards > 1 && options_.exec.pool == nullptr) {
    return Status::InvalidArgument("num_shards > 1 requires a thread pool");
  }
  if (options_.max_events < 0) {
    return Status::InvalidArgument("max_events must be >= 0");
  }
  return Status::OK();
}

int Engine::AddHandler(Handler handler) {
  DMLSCALE_CHECK(handler != nullptr);
  handlers_.push_back(std::move(handler));
  return static_cast<int>(handlers_.size()) - 1;
}

Status Engine::ScheduleAt(int node, double time, int type, int64_t a,
                          int64_t b, double x) {
  if (node < 0 || node >= num_nodes_) {
    return Status::InvalidArgument(
        "ScheduleAt node " + std::to_string(node) + " out of range [0, " +
        std::to_string(num_nodes_) + ")");
  }
  DMLSCALE_CHECK(type >= 0 && type < static_cast<int>(handlers_.size()));
  DMLSCALE_CHECK_GE(time, 0.0);
  const Event event{time, PackStamp(window_.stamp, node),
                    node_seq_[static_cast<size_t>(node)]++,
                    static_cast<int32_t>(type), static_cast<int32_t>(node),
                    a, b, x};
  EventHeap& queue = queues_[static_cast<size_t>(node)];
  Shard& shard = shards_[static_cast<size_t>(
      node_shard_[static_cast<size_t>(node)])];
  if (shard.popping == node) {
    // The running event's first schedule on its own node takes its place.
    shard.popping = -1;
    queue.ReplaceTop(event);
  } else {
    queue.Push(event);
  }
  return Status::OK();
}

void Engine::MustScheduleAt(int node, double time, int type, int64_t a,
                            int64_t b, double x) {
  Status status = ScheduleAt(node, time, type, a, b, x);
  DMLSCALE_CHECK_MSG(status.ok(), "MustScheduleAt on an invalid node");
}

void Engine::Send(int src, int dst, double delay, double now, int type,
                  int64_t a, int64_t b, double x) {
  DMLSCALE_CHECK(src >= 0 && src < num_nodes_);
  DMLSCALE_CHECK(dst >= 0 && dst < num_nodes_);
  DMLSCALE_CHECK_GE(delay, 0.0);
  if (!running_) {
    // Before Run, calls are serial: schedule at once in call order.
    MustScheduleAt(dst, now + delay, type, a, b, x);
    return;
  }
  DMLSCALE_CHECK(type >= 0 && type < static_cast<int>(handlers_.size()));
  // The clock-skew bound: an in-window send lands in a later window, so a
  // message pushed now cannot run inside the window that sent it.
  DMLSCALE_CHECK_GE(delay, options_.lookahead);
  const double arrival = now + delay;
  DMLSCALE_CHECK_GE(arrival, window_.end);
  const uint64_t stamp = PackStamp(window_.stamp + 1, src);
  const uint64_t seq = node_seq_[static_cast<size_t>(src)]++;
  // Only the party stepping `src`'s shard sends from it inside a window, so
  // neither its shard's counters nor its buckets need a lock.
  const int from = node_shard_[static_cast<size_t>(src)];
  const int to = node_shard_[static_cast<size_t>(dst)];
  Shard& shard = shards_[static_cast<size_t>(from)];
  ++shard.sent;
  if (from == to) {
    // The key fixes the pop order, so the push need not wait for the
    // barrier. It may land on a node the step has already passed.
    shard.next_time = std::min(shard.next_time, arrival);
    queues_[static_cast<size_t>(dst)].Push(
        Event{arrival, stamp, seq, static_cast<int32_t>(type),
              static_cast<int32_t>(dst), a, b, x});
    return;
  }
  // Filled in its slot: a record built elsewhere and copied in would be
  // read back with loads wider than the stores that just wrote it.
  Event& event =
      buckets_[static_cast<size_t>(from) *
                   static_cast<size_t>(options_.exec.num_shards) +
               static_cast<size_t>(to)]
          .events.emplace_back();
  event.time = arrival;
  event.stamp = stamp;
  event.seq = seq;
  event.type = static_cast<int32_t>(type);
  event.node = static_cast<int32_t>(dst);
  event.a = a;
  event.b = b;
  event.x = x;
}

void Engine::StepShard(int index, double window_end, int64_t budget) {
  Shard& shard = shards_[static_cast<size_t>(index)];
  shard.sent = 0;
  shard.next_time = kInf;  // Send folds its direct pushes in as well
  int64_t executed = 0;
  double end_time = shard.end_time;
  for (int node = shard.begin; node < shard.end; ++node) {
    EventHeap& queue = queues_[static_cast<size_t>(node)];
    while (!queue.empty() && queue.Top().time < window_end) {
      if (executed >= budget) {
        // A same-window self-rescheduling chain: stop so Run can surface
        // ResourceExhausted instead of hanging (deterministic: the budget
        // depends only on event counts, not thread interleaving).
        shard.overflow = true;
        shard.events = executed;
        shard.end_time = end_time;
        return;
      }
      // The handler gets a copy: its first schedule on this node overwrites
      // the top while it runs.
      const Event event = queue.Top();
      end_time = std::max(end_time, event.time);
      ++executed;
      const Handler& handler = handlers_[static_cast<size_t>(event.type)];
      if (queue.size() <= kPopFirstMaxEvents) {
        queue.Pop();
        handler(event);
        continue;
      }
      // Deferred pop: until the handler schedules on this node, only later
      // events reach its queue, so the running event stays on top. A Send
      // lands at or after the window's end, no other node of the shard runs
      // meanwhile, and other shards' messages arrive after the barrier.
      shard.popping = node;
      handler(event);
      if (shard.popping == node) {
        shard.popping = -1;
        queue.Pop();
      }
    }
    if (!queue.empty()) {
      shard.next_time = std::min(shard.next_time, queue.Top().time);
    }
  }
  shard.events = executed;
  shard.end_time = end_time;
}

void Engine::DeliverShard(int index) {
  Shard& shard = shards_[static_cast<size_t>(index)];
  const size_t num_shards = static_cast<size_t>(options_.exec.num_shards);
  for (size_t src = 0; src < num_shards; ++src) {
    std::vector<Event>& bucket =
        buckets_[src * num_shards + static_cast<size_t>(index)].events;
    for (const Event& event : bucket) {
      shard.next_time = std::min(shard.next_time, event.time);
      queues_[static_cast<size_t>(event.node)].Push(event);
    }
    bucket.clear();
  }
}

void Engine::StepParty(int party, int parties,
                       CyclicBarrier* barrier) noexcept {
  const int num_shards = options_.exec.num_shards;
  for (int s = party; s < num_shards; s += parties) {
    StepShard(s, window_.end, window_.budget);
  }
  // Every send of the window is in its bucket before any shard drains one.
  if (barrier != nullptr) barrier->Arrive();
  for (int s = party; s < num_shards; s += parties) DeliverShard(s);
  if (barrier != nullptr) barrier->Arrive();
}

Result<EngineStats> Engine::StepWindows(int parties,
                                        CyclicBarrier* barrier) {
  EngineStats stats;
  for (Shard& shard : shards_) shard.end_time = 0.0;

  // Earliest pending event across all nodes (initial schedules are made
  // serially, so this scan is deterministic).
  double t_min = kInf;
  for (const EventHeap& queue : queues_) {
    if (!queue.empty()) t_min = std::min(t_min, queue.Top().time);
  }

  // Both guards report only shard-invariant progress: what ran before the
  // window starting at t_min.
  const auto exhausted = [&](const std::string& what) {
    return Status::ResourceExhausted(
        what + " in the window starting at t=" + std::to_string(t_min) +
        " (" + std::to_string(stats.events_executed) +
        " events executed, sim time reached " +
        std::to_string(stats.end_time) + ")");
  };
  // The first window follows none, so it goes to the parties.
  int64_t last_window_events = kInlineWindowEvents;
  while (t_min != kInf) {
    if (stats.windows == kMaxWindows) {
      return exhausted("window count reached the engine's limit of " +
                       std::to_string(kMaxWindows));
    }
    window_.end = t_min + options_.lookahead;
    window_.stamp = static_cast<uint32_t>(2 * stats.windows + 2);
    // Every shard may spend what is left of the max_events budget, so the
    // guard trips iff the window's events would take the total past
    // max_events, whatever the shard count.
    window_.budget = options_.max_events > 0
                         ? options_.max_events - stats.events_executed
                         : INT64_MAX;
    if (parties == 1 || last_window_events < kInlineWindowEvents) {
      // Shards touch disjoint nodes within a phase, so stepping them in
      // turn is equivalent to stepping them concurrently.
      StepParty(0, 1, nullptr);
    } else {
      barrier->Arrive();  // opens the window for the pool parties
      StepParty(0, parties, barrier);
    }
    bool overflow = false;
    double end_time = stats.end_time;
    double next_time = kInf;
    int64_t sent = 0;
    last_window_events = 0;
    for (const Shard& shard : shards_) {
      last_window_events += shard.events;
      sent += shard.sent;
      end_time = std::max(end_time, shard.end_time);
      next_time = std::min(next_time, shard.next_time);
      overflow = overflow || shard.overflow;
    }
    if (overflow || last_window_events > window_.budget) {
      return exhausted("event count exceeded max_events=" +
                       std::to_string(options_.max_events));
    }
    ++stats.windows;
    stats.events_executed += last_window_events;
    stats.end_time = end_time;
    stats.messages_delivered += sent;
    // The earliest message may start the next window.
    t_min = next_time;
  }
  return stats;
}

Result<EngineStats> Engine::RunWindowed() {
  const int num_shards = options_.exec.num_shards;
  ThreadPool* pool = options_.exec.pool;
  // The caller is party 0. Each further party is a pool task that lives for
  // the whole Run, so there are no more of them than pool threads.
  const int parties =
      num_shards == 1
          ? 1
          : static_cast<int>(std::min(static_cast<size_t>(num_shards),
                                      pool->num_threads() + 1));
  CyclicBarrier barrier(static_cast<size_t>(parties));
  for (int party = 1; party < parties; ++party) {
    pool->Submit([this, &barrier, party, parties] {
      for (;;) {
        // The caller opens each pooled window, or the end of Run, here.
        barrier.Arrive();
        if (window_.stop) return;
        StepParty(party, parties, &barrier);
      }
    });
  }
  Result<EngineStats> result = StepWindows(parties, &barrier);
  if (parties > 1) {
    // Every window ends with the parties back at the opening barrier, so
    // every exit, errors included, can release them there and wait for them
    // to leave.
    window_.stop = true;
    barrier.Arrive();
    pool->WaitIdle();
  }
  // Schedules made after Run get stamp 0, as before it.
  window_ = Window{};
  return result;
}

Result<EngineStats> Engine::Run() {
  DMLSCALE_RETURN_NOT_OK(ValidateOptions());
  DMLSCALE_CHECK_MSG(!running_, "Engine::Run is not reentrant");
  running_ = true;
  Result<EngineStats> result = RunWindowed();
  running_ = false;
  return result;
}

}  // namespace dmlscale::sim
