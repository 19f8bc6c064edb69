#include "serve/serving_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "serve/dispatch_index.h"

namespace dmlscale::serve {

namespace {

// Seed-space salts, in the kFaultSeedSalt idiom: the arrival stream and
// the cache coin flips draw from unrelated derived streams.
constexpr uint64_t kArrivalSeedSalt = 0x5EBF1CE5ULL;
constexpr uint64_t kCacheSeedSalt = 0xCAC4E517ULL;
constexpr uint64_t kServiceSeedSalt = 0x5EAC0DE5ULL;

// One request waiting at a replica.
struct PendingRequest {
  double enqueue_s = 0.0;  // arrival at the replica (batch-delay clock)
  double arrival_s = 0.0;  // arrival at the frontend (latency clock)
  int64_t id = 0;
};

// Per-replica state; every field touched only by that replica's handlers.
struct ReplicaState {
  // The requests in pending[head, end) wait, in arrival order. A batch
  // start advances head; the consumed prefix is erased once it passes half
  // the vector, and the vector is cleared when it drains, so head <
  // pending.size() unless pending is empty.
  std::vector<PendingRequest> pending;
  size_t head = 0;
  std::vector<PendingRequest> executing;
  bool busy = false;
  bool timer_armed = false;
  uint64_t epoch = 0;  // bumped per batch start; stale close timers miss it
  double busy_s = 0.0;
  int64_t batches = 0;
  int64_t executed = 0;
  int64_t completed_measured = 0;
  double latency_sum_s = 0.0;
  Histogram latency;
  Pcg32 service_rng;  // exponential service draws, one stream per replica
};

}  // namespace

Status ServingSimConfig::Validate() const {
  DMLSCALE_RETURN_NOT_OK(spec.Validate());
  if (num_requests < 1) {
    return Status::InvalidArgument("num_requests must be >= 1");
  }
  if (warmup_requests < 0) {
    return Status::InvalidArgument("warmup_requests must be >= 0");
  }
  if (warmup_requests > std::numeric_limits<int64_t>::max() - num_requests) {
    return Status::InvalidArgument(
        "num_requests + warmup_requests must fit in an int64");
  }
  if (wire_s <= 0.0) {
    return Status::InvalidArgument(
        "serving sim needs a positive dispatch wire time (the engine "
        "lookahead)");
  }
  return Status::OK();
}

Result<ServingSimStats> SimulateServing(const ServingSimConfig& config) {
  DMLSCALE_RETURN_NOT_OK(config.Validate());
  const ServingSpec& spec = config.spec;
  const int replicas = spec.replicas;
  const int frontend = replicas;  // node ids: [0, replicas) then frontend
  const double wire = config.wire_s;
  const int64_t total_requests = config.num_requests + config.warmup_requests;
  const core::BatchServiceModel service = spec.replica.ShardedService();
  const int max_batch = spec.batcher.max_batch;
  const double max_delay = spec.batcher.max_delay_s;
  const bool cached = spec.cache.Enabled();

  // --- Node-owned state ---------------------------------------------------
  // Frontend: the arrival stream, the cache coin stream, the dispatch
  // cursor + outstanding counts, and the hit-path latency histogram.
  ArrivalProcess process(spec.arrivals, config.seed, kArrivalSeedSalt);
  Pcg32 cache_rng(DeriveSeed(config.seed, kCacheSeedSalt), kCacheSeedSalt);
  int next_replica = 0;
  // Least-outstanding dispatch state: requests sent minus completions
  // heard back, per replica. The counts lag reality by the response wire
  // time — exactly the information a production load balancer has.
  LeastOutstandingIndex outstanding(replicas);
  double last_arrival_s = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  int64_t frontend_completed_measured = 0;
  double frontend_latency_sum_s = 0.0;
  Histogram frontend_latency;
  // Replicas. Each owns its service-draw stream, keyed by node id, so the
  // draw sequence is a pure function of (seed, replica) — shard-invariant.
  std::vector<ReplicaState> replica_state;
  replica_state.reserve(static_cast<size_t>(replicas));
  for (int r = 0; r < replicas; ++r) {
    const auto salt = kServiceSeedSalt + static_cast<uint64_t>(r);
    replica_state.emplace_back();
    replica_state.back().service_rng =
        Pcg32(DeriveSeed(config.seed, salt),
              kServiceSeedSalt ^ static_cast<uint64_t>(r));
  }

  sim::EngineOptions options;
  options.lookahead = wire;
  options.exec = config.exec;
  sim::Engine engine(replicas + 1, options);

  int kArrive = -1;
  int kEnqueue = -1;
  int kClose = -1;
  int kDepart = -1;
  int kDone = -1;

  auto start_batch = [&](int r, double now) {
    ReplicaState& state = replica_state[static_cast<size_t>(r)];
    const size_t take = std::min(state.pending.size() - state.head,
                                 static_cast<size_t>(max_batch));
    const auto first =
        state.pending.begin() + static_cast<std::ptrdiff_t>(state.head);
    state.executing.assign(first, first + static_cast<std::ptrdiff_t>(take));
    state.head += take;
    if (state.head == state.pending.size()) {
      state.pending.clear();
      state.head = 0;
    } else if (2 * state.head > state.pending.size()) {
      state.pending.erase(
          state.pending.begin(),
          state.pending.begin() + static_cast<std::ptrdiff_t>(state.head));
      state.head = 0;
    }
    state.busy = true;
    state.timer_armed = false;
    ++state.epoch;
    // The analytic pipeline is an M/M/k (exponential servers), so each
    // batch executes for Exp(mean = Latency(b)) from a replica-owned
    // stream: the batchless sim is an M/M/k realization Erlang-C can be
    // cross-checked against. 1 - NextDouble() is in (0, 1], so the log is
    // finite and the draw nonnegative.
    const double latency =
        -service.Latency(static_cast<int>(take)) *
        std::log(1.0 - state.service_rng.NextDouble());
    state.busy_s += latency;
    state.batches += 1;
    state.executed += static_cast<int64_t>(take);
    engine.MustScheduleAt(r, now + latency, kDepart);
  };

  // Close the head batch if a knob says so; otherwise arm the delay timer.
  auto try_close = [&](int r, double now) {
    ReplicaState& state = replica_state[static_cast<size_t>(r)];
    if (state.busy || state.pending.empty()) return;
    double deadline = state.pending[state.head].enqueue_s + max_delay;
    if (static_cast<int>(state.pending.size() - state.head) >= max_batch ||
        max_delay == 0.0 || deadline <= now) {
      start_batch(r, now);
      return;
    }
    if (!state.timer_armed) {
      state.timer_armed = true;
      engine.MustScheduleAt(r, deadline, kClose,
                            static_cast<int64_t>(state.epoch));
    }
  };

  // Request `a` arrives at the frontend: probe the cache, dispatch misses
  // per spec.dispatch, and draw the next arrival (frontend-owned stream).
  kArrive = engine.AddHandler([&](const sim::Event& event) {
    const int64_t id = event.a;
    last_arrival_s = event.time;
    if (id + 1 < total_requests) {
      engine.MustScheduleAt(frontend, process.NextArrivalSeconds(), kArrive,
                            id + 1);
    }
    if (cached && cache_rng.NextBernoulli(spec.cache.hit_rate)) {
      ++cache_hits;
      if (id >= config.warmup_requests) {
        frontend_latency.Add(spec.cache.hit_latency_s);
        frontend_latency_sum_s += spec.cache.hit_latency_s;
        ++frontend_completed_measured;
      }
      return;
    }
    if (cached) ++cache_misses;
    // Ties go to the earliest replica in rotated order from the cursor, so
    // the idle-fleet case degrades to round-robin and stays deterministic.
    const int chosen = spec.dispatch == DispatchPolicy::kLeastOutstanding
                           ? outstanding.Pick(next_replica)
                           : next_replica;
    outstanding.Add(chosen, 1);
    engine.Send(frontend, chosen, wire, event.time, kEnqueue, id, 0,
                event.time);
    next_replica = (chosen + 1) % replicas;
  });

  // A miss lands in replica `node`'s batch queue (x = frontend arrival).
  kEnqueue = engine.AddHandler([&](const sim::Event& event) {
    ReplicaState& state = replica_state[static_cast<size_t>(event.node)];
    state.pending.push_back(PendingRequest{event.time, event.x, event.a});
    try_close(event.node, event.time);
  });

  // The delay knob fires (a = epoch it was armed for; stale after any
  // batch start since then).
  kClose = engine.AddHandler([&](const sim::Event& event) {
    ReplicaState& state = replica_state[static_cast<size_t>(event.node)];
    if (static_cast<uint64_t>(event.a) != state.epoch || state.busy) return;
    state.timer_armed = false;
    if (!state.pending.empty()) start_batch(event.node, event.time);
  });

  // A batch finishes: score its requests (response wire priced
  // additively), tell the frontend how many completed (its outstanding
  // counts are what least-outstanding dispatch reads), and look for the
  // next batch.
  kDepart = engine.AddHandler([&](const sim::Event& event) {
    ReplicaState& state = replica_state[static_cast<size_t>(event.node)];
    state.busy = false;
    for (const PendingRequest& request : state.executing) {
      if (request.id < config.warmup_requests) continue;
      double latency = event.time + wire - request.arrival_s;
      state.latency.Add(latency);
      state.latency_sum_s += latency;
      ++state.completed_measured;
    }
    auto finished = static_cast<int64_t>(state.executing.size());
    state.executing.clear();
    engine.Send(event.node, frontend, wire, event.time, kDone, event.node,
                finished);
    try_close(event.node, event.time);
  });

  // Completion acknowledgment at the frontend (a = replica, b = count).
  kDone = engine.AddHandler([&](const sim::Event& event) {
    outstanding.Add(static_cast<int>(event.a), -event.b);
  });

  engine.MustScheduleAt(frontend, process.NextArrivalSeconds(), kArrive, 0);
  DMLSCALE_ASSIGN_OR_RETURN(sim::EngineStats engine_stats, engine.Run());

  // --- Deterministic reduction: merge per-node results in node order. -----
  ServingSimStats stats;
  stats.engine = engine_stats;
  stats.duration_s = engine_stats.end_time;
  int64_t completed = 0;
  int64_t executed_total = 0;
  double latency_sum_s = 0.0;
  stats.replica_utilization.reserve(static_cast<size_t>(replicas));
  for (const ReplicaState& state : replica_state) {
    stats.latency.Merge(state.latency);
    completed += state.completed_measured;
    executed_total += state.executed;
    latency_sum_s += state.latency_sum_s;
    stats.batches += state.batches;
    stats.replica_utilization.push_back(
        stats.duration_s > 0.0 ? state.busy_s / stats.duration_s : 0.0);
    stats.mean_replica_utilization += stats.replica_utilization.back();
  }
  stats.mean_replica_utilization /= static_cast<double>(replicas);
  stats.latency.Merge(frontend_latency);
  completed += frontend_completed_measured;
  latency_sum_s += frontend_latency_sum_s;

  if (completed != config.num_requests) {
    return Status::Internal("serving sim lost requests: completed " +
                            std::to_string(completed) + " of " +
                            std::to_string(config.num_requests));
  }
  stats.cache_hits = cache_hits;
  stats.cache_misses = cache_misses;
  stats.mean_latency_s =
      latency_sum_s / static_cast<double>(config.num_requests);
  stats.p50_s = stats.latency.Percentile(0.50);
  stats.p95_s = stats.latency.Percentile(0.95);
  stats.p99_s = stats.latency.Percentile(0.99);
  stats.offered_qps = last_arrival_s > 0.0
                          ? static_cast<double>(total_requests) / last_arrival_s
                          : 0.0;
  stats.completed_qps =
      stats.duration_s > 0.0
          ? static_cast<double>(config.num_requests) / stats.duration_s
          : 0.0;
  stats.mean_batch = stats.batches > 0 ? static_cast<double>(executed_total) /
                                             static_cast<double>(stats.batches)
                                       : 0.0;
  return stats;
}

}  // namespace dmlscale::serve
