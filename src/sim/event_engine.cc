#include "sim/event_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.h"
#include "engine/parallel_for.h"

namespace dmlscale::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A window that follows one with fewer events than this steps its shards
// one after another on the caller: below it, the pool round trip costs more
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
  inbox_begin_.assign(nodes + 1, 0);
  int shards = std::max(options_.exec.num_shards, 1);
  outboxes_.resize(static_cast<size_t>(shards));
  shard_events_.assign(static_cast<size_t>(shards), 0);
  shard_end_time_.assign(static_cast<size_t>(shards), 0.0);
  shard_next_time_.assign(static_cast<size_t>(shards), kInf);
  shard_overflow_.assign(static_cast<size_t>(shards), 0);
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
  Message message;
  message.time = now + delay;
  message.src = static_cast<int32_t>(src);
  message.send_seq = send_seq_[static_cast<size_t>(src)]++;
  message.event = Event{message.time, 0, static_cast<int32_t>(type),
                        static_cast<int32_t>(dst), a, b, x};
  // Route into the outbox of the shard owning `src` (engine::ComputeShard's
  // fixed layout inverted): that shard's worker is the only writer during a
  // window, so no lock is needed.
  const int num_shards = options_.exec.num_shards;
  const int64_t base = num_nodes_ / num_shards;
  const int64_t remainder = num_nodes_ % num_shards;
  const int64_t boundary = remainder * (base + 1);
  const int shard =
      src < boundary
          ? static_cast<int>(src / (base + 1))
          : static_cast<int>(remainder + (src - boundary) / base);
  outboxes_[static_cast<size_t>(shard)].messages.push_back(std::move(message));
}

double Engine::GroupOutboxesByDestination() {
  // Counting sort by destination: count each node's messages, turn the
  // counts into group ends with a prefix sum, then scatter from the back,
  // which moves each end down to its group's start and keeps outbox order
  // within a group.
  std::fill(inbox_begin_.begin(), inbox_begin_.end(), 0);
  size_t total = 0;
  double earliest = kInf;
  for (const Outbox& box : outboxes_) {
    for (const Message& message : box.messages) {
      ++inbox_begin_[static_cast<size_t>(message.event.node)];
      earliest = std::min(earliest, message.time);
    }
    total += box.messages.size();
  }
  std::partial_sum(inbox_begin_.begin(), inbox_begin_.end(),
                   inbox_begin_.begin());
  inbox_.resize(total);
  for (auto box = outboxes_.rbegin(); box != outboxes_.rend(); ++box) {
    for (auto message = box->messages.rbegin();
         message != box->messages.rend(); ++message) {
      inbox_[--inbox_begin_[static_cast<size_t>(message->event.node)]] =
          *message;
    }
    box->messages.clear();
  }
  return earliest;
}

void Engine::StepShard(int shard, double window_end, int64_t budget) {
  engine::ShardRange range = engine::ComputeShard(
      0, num_nodes_, options_.exec.num_shards, shard);
  // Deliver this shard's slice of the last barrier's messages before any
  // node steps, each destination's group in (arrival time, src, send seq)
  // order whatever the outbox order was: its seq stamps, and thus
  // everything downstream, are then shard-invariant.
  for (int64_t node = range.begin; node < range.end; ++node) {
    Message* first = inbox_.data() + inbox_begin_[static_cast<size_t>(node)];
    Message* last =
        inbox_.data() + inbox_begin_[static_cast<size_t>(node) + 1];
    if (last - first > 1) {
      std::sort(first, last, [](const Message& a, const Message& b) {
        if (a.time != b.time) return a.time < b.time;
        if (a.src != b.src) return a.src < b.src;
        return a.send_seq < b.send_seq;
      });
    }
    EventHeap& queue = queues_[static_cast<size_t>(node)];
    for (; first != last; ++first) {
      Event event = first->event;
      event.seq = node_seq_[static_cast<size_t>(node)]++;
      queue.Push(event);
    }
  }
  int64_t executed = 0;
  double end_time = shard_end_time_[static_cast<size_t>(shard)];
  double next_time = kInf;
  for (int64_t node = range.begin; node < range.end; ++node) {
    EventHeap& queue = queues_[static_cast<size_t>(node)];
    while (!queue.empty() && queue.Top().time < window_end) {
      if (executed >= budget) {
        // A same-window self-rescheduling chain: stop so Run can surface
        // ResourceExhausted instead of hanging (deterministic: the budget
        // depends only on event counts, not thread interleaving).
        shard_overflow_[static_cast<size_t>(shard)] = 1;
        shard_events_[static_cast<size_t>(shard)] = executed;
        shard_end_time_[static_cast<size_t>(shard)] = end_time;
        shard_next_time_[static_cast<size_t>(shard)] = next_time;
        return;
      }
      Event event = queue.PopTop();
      end_time = std::max(end_time, event.time);
      ++executed;
      handlers_[static_cast<size_t>(event.type)](event);
    }
    if (!queue.empty()) next_time = std::min(next_time, queue.Top().time);
  }
  shard_events_[static_cast<size_t>(shard)] = executed;
  shard_end_time_[static_cast<size_t>(shard)] = end_time;
  shard_next_time_[static_cast<size_t>(shard)] = next_time;
}

Result<EngineStats> Engine::RunWindowed() {
  EngineStats stats;
  const int num_shards = options_.exec.num_shards;
  std::fill(shard_end_time_.begin(), shard_end_time_.end(), 0.0);

  // Earliest pending event across all nodes (initial schedules are made
  // serially, so this scan is deterministic).
  double t_min = kInf;
  for (const EventHeap& queue : queues_) {
    if (!queue.empty()) t_min = std::min(t_min, queue.Top().time);
  }

  // The first window follows none, so it goes to the pool.
  int64_t last_window_events = kInlineWindowEvents;
  while (t_min != kInf) {
    const double window_end = t_min + options_.lookahead;
    // Every shard may spend what is left of the max_events budget, so the
    // guard trips iff the window's events would take the total past
    // max_events, whatever the shard count.
    const int64_t budget = options_.max_events > 0
                               ? options_.max_events - stats.events_executed
                               : INT64_MAX;
    if (num_shards == 1 || last_window_events < kInlineWindowEvents) {
      // Shards touch disjoint nodes within a window, so stepping them in
      // turn is equivalent to stepping them concurrently.
      for (int s = 0; s < num_shards; ++s) StepShard(s, window_end, budget);
    } else {
      engine::ParallelFor(options_.exec.pool, 0, num_nodes_, num_shards,
                          [this, window_end, budget](int shard,
                                                     int64_t /*begin*/,
                                                     int64_t /*end*/) {
                            StepShard(shard, window_end, budget);
                          });
    }
    bool overflow = false;
    double end_time = stats.end_time;
    double next_time = kInf;
    last_window_events = 0;
    for (int s = 0; s < num_shards; ++s) {
      last_window_events += shard_events_[static_cast<size_t>(s)];
      end_time = std::max(end_time, shard_end_time_[static_cast<size_t>(s)]);
      next_time = std::min(next_time, shard_next_time_[static_cast<size_t>(s)]);
      overflow = overflow || shard_overflow_[static_cast<size_t>(s)] != 0;
    }
    if (overflow || last_window_events > budget) {
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
    // Window barrier: group the outboxes by destination for the shards'
    // next steps to deliver; the earliest arrival may start the next window.
    next_time = std::min(next_time, GroupOutboxesByDestination());
    stats.messages_delivered += static_cast<int64_t>(inbox_.size());
    t_min = next_time;
  }
  return stats;
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
