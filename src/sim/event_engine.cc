#include "sim/event_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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

}  // namespace

Engine::Engine(int num_nodes, EngineOptions options)
    : num_nodes_(num_nodes), options_(options) {
  DMLSCALE_CHECK_GE(num_nodes, 1);
  const size_t nodes = static_cast<size_t>(num_nodes);
  queues_.resize(nodes);
  node_seq_.assign(nodes, 0);
  send_seq_.assign(nodes, 0);
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
    shard.inbox_begin.assign(static_cast<size_t>(range.end - range.begin) + 1,
                             0);
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
  queues_[static_cast<size_t>(node)].Push(
      Event{time, node_seq_[static_cast<size_t>(node)]++,
            static_cast<int32_t>(type), static_cast<int32_t>(node), a, b, x});
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
  // The clock-skew bound: an in-window send must land in a later window.
  DMLSCALE_CHECK_GE(delay, options_.lookahead);
  DMLSCALE_CHECK(type >= 0 && type < static_cast<int>(handlers_.size()));
  // Only the party stepping `src`'s shard appends to this bucket inside a
  // window, so no lock is needed.
  const size_t bucket =
      static_cast<size_t>(node_shard_[static_cast<size_t>(src)]) *
          static_cast<size_t>(options_.exec.num_shards) +
      static_cast<size_t>(node_shard_[static_cast<size_t>(dst)]);
  // Filled in its slot: a record built elsewhere and copied in would be
  // read back with loads wider than the stores that just wrote it.
  Message& message = buckets_[bucket].messages.emplace_back();
  message.event.time = now + delay;
  message.event.seq = send_seq_[static_cast<size_t>(src)]++;
  message.event.type = static_cast<int32_t>(type);
  message.event.node = static_cast<int32_t>(dst);
  message.event.a = a;
  message.event.b = b;
  message.event.x = x;
  message.src = static_cast<int32_t>(src);
}

void Engine::StepShard(int index, double window_end, int64_t budget) {
  Shard& shard = shards_[static_cast<size_t>(index)];
  int64_t executed = 0;
  double end_time = shard.end_time;
  double next_time = kInf;
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
        shard.next_time = next_time;
        return;
      }
      Event event = queue.PopTop();
      end_time = std::max(end_time, event.time);
      ++executed;
      handlers_[static_cast<size_t>(event.type)](event);
    }
    if (!queue.empty()) next_time = std::min(next_time, queue.Top().time);
  }
  shard.events = executed;
  shard.end_time = end_time;
  shard.next_time = next_time;
}

void Engine::DeliverShard(int index) {
  Shard& shard = shards_[static_cast<size_t>(index)];
  const size_t num_shards = static_cast<size_t>(options_.exec.num_shards);
  const size_t dst = static_cast<size_t>(index);
  size_t total = 0;
  for (size_t src = 0; src < num_shards; ++src) {
    total += buckets_[src * num_shards + dst].messages.size();
  }
  shard.delivered = static_cast<int64_t>(total);
  if (total == 0) return;

  // Counting sort of pointers by destination node: count each node's
  // messages, turn the counts into group ends with a prefix sum, then
  // scatter from the back, which moves each end down to its group's start.
  std::vector<size_t>& group = shard.inbox_begin;
  std::fill(group.begin(), group.end(), 0);
  double earliest = kInf;
  for (size_t src = 0; src < num_shards; ++src) {
    for (const Message& message : buckets_[src * num_shards + dst].messages) {
      ++group[static_cast<size_t>(message.event.node - shard.begin)];
      earliest = std::min(earliest, message.event.time);
    }
  }
  std::partial_sum(group.begin(), group.end(), group.begin());
  shard.inbox.resize(total);
  for (size_t src = num_shards; src-- > 0;) {
    const std::vector<Message>& bucket =
        buckets_[src * num_shards + dst].messages;
    for (auto message = bucket.rbegin(); message != bucket.rend(); ++message) {
      shard.inbox[--group[static_cast<size_t>(message->event.node -
                                              shard.begin)]] = &*message;
    }
  }
  shard.next_time = std::min(shard.next_time, earliest);

  // Deliver each destination's group in (arrival time, src, send seq)
  // order whatever the bucket order was: its seq stamps, and thus
  // everything downstream, are then shard-invariant.
  for (int node = shard.begin; node < shard.end; ++node) {
    const size_t i = static_cast<size_t>(node - shard.begin);
    const Message** first = shard.inbox.data() + group[i];
    const Message** last = shard.inbox.data() + group[i + 1];
    if (last - first > 1) {
      std::sort(first, last, [](const Message* a, const Message* b) {
        if (a->event.time != b->event.time) {
          return a->event.time < b->event.time;
        }
        if (a->src != b->src) return a->src < b->src;
        return a->event.seq < b->event.seq;  // the send counters
      });
    }
    EventHeap& queue = queues_[static_cast<size_t>(node)];
    for (; first != last; ++first) {
      Event event = (*first)->event;
      event.seq = node_seq_[static_cast<size_t>(node)]++;
      queue.Push(event);
    }
  }
  // The inbox points into the buckets, so they empty only now.
  for (size_t src = 0; src < num_shards; ++src) {
    buckets_[src * num_shards + dst].messages.clear();
  }
}

void Engine::StepParty(int party, int parties, const Window& window,
                       CyclicBarrier* barrier) noexcept {
  const int num_shards = options_.exec.num_shards;
  for (int s = party; s < num_shards; s += parties) {
    StepShard(s, window.end, window.budget);
  }
  // Every send of the window is in its bucket before any shard drains one.
  if (barrier != nullptr) barrier->Arrive();
  for (int s = party; s < num_shards; s += parties) DeliverShard(s);
  if (barrier != nullptr) barrier->Arrive();
}

Result<EngineStats> Engine::StepWindows(int parties, CyclicBarrier* barrier,
                                        Window* window) {
  EngineStats stats;
  for (Shard& shard : shards_) shard.end_time = 0.0;

  // Earliest pending event across all nodes (initial schedules are made
  // serially, so this scan is deterministic).
  double t_min = kInf;
  for (const EventHeap& queue : queues_) {
    if (!queue.empty()) t_min = std::min(t_min, queue.Top().time);
  }

  // The first window follows none, so it goes to the parties.
  int64_t last_window_events = kInlineWindowEvents;
  while (t_min != kInf) {
    window->end = t_min + options_.lookahead;
    // Every shard may spend what is left of the max_events budget, so the
    // guard trips iff the window's events would take the total past
    // max_events, whatever the shard count.
    window->budget = options_.max_events > 0
                         ? options_.max_events - stats.events_executed
                         : INT64_MAX;
    if (parties == 1 || last_window_events < kInlineWindowEvents) {
      // Shards touch disjoint nodes within a phase, so stepping them in
      // turn is equivalent to stepping them concurrently.
      StepParty(0, 1, *window, nullptr);
    } else {
      barrier->Arrive();  // opens the window for the pool parties
      StepParty(0, parties, *window, barrier);
    }
    bool overflow = false;
    double end_time = stats.end_time;
    double next_time = kInf;
    int64_t delivered = 0;
    last_window_events = 0;
    for (const Shard& shard : shards_) {
      last_window_events += shard.events;
      delivered += shard.delivered;
      end_time = std::max(end_time, shard.end_time);
      next_time = std::min(next_time, shard.next_time);
      overflow = overflow || shard.overflow;
    }
    if (overflow || last_window_events > window->budget) {
      // Report only shard-invariant progress: what ran before this window.
      return Status::ResourceExhausted(
          "event count exceeded max_events=" +
          std::to_string(options_.max_events) +
          " in the window starting at t=" + std::to_string(t_min) + " (" +
          std::to_string(stats.events_executed) +
          " events executed, sim time reached " +
          std::to_string(stats.end_time) + ")");
    }
    ++stats.windows;
    stats.events_executed += last_window_events;
    stats.end_time = end_time;
    stats.messages_delivered += delivered;
    // The earliest delivery may start the next window.
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
  Window window;
  for (int party = 1; party < parties; ++party) {
    pool->Submit([this, &barrier, &window, party, parties] {
      for (;;) {
        // The caller opens each pooled window, or the end of Run, here.
        barrier.Arrive();
        if (window.stop) return;
        StepParty(party, parties, window, &barrier);
      }
    });
  }
  Result<EngineStats> result = StepWindows(parties, &barrier, &window);
  if (parties > 1) {
    // Every window ends with the parties back at the opening barrier, so
    // every exit, errors included, can release them there and wait for them
    // to leave.
    window.stop = true;
    barrier.Arrive();
    pool->WaitIdle();
  }
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
