#include "sim/event_engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "sim/event_heap.h"
#include "sim/scale_scenarios.h"

namespace dmlscale::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EventHeapTest, PopsInTimeThenSeqOrder) {
  EventHeap heap;
  heap.Push(Event{.time = 2.0, .seq = 0});
  heap.Push(Event{.time = 1.0, .seq = 2});
  heap.Push(Event{.time = 1.0, .seq = 1});
  ASSERT_EQ(heap.size(), 3u);
  EXPECT_DOUBLE_EQ(heap.Top().time, 1.0);
  EXPECT_EQ(heap.PopTop().seq, 1u);
  EXPECT_EQ(heap.PopTop().seq, 2u);
  EXPECT_DOUBLE_EQ(heap.PopTop().time, 2.0);
  EXPECT_TRUE(heap.empty());

  // A fixed-seed interleaving of pushes and pops over a handful of times,
  // so most comparisons are ties that seq decides. Each pop must return
  // the (time, seq) minimum of a sorted reference, with the payload (`a`,
  // the op index) it was pushed with.
  std::set<std::tuple<double, uint64_t, int64_t>> expected;
  Pcg32 rng(2024);
  uint64_t seq = 0;
  for (int64_t op = 0; op < 10000; ++op) {
    if (expected.empty() || rng.NextBounded(3) != 0) {
      const double time = static_cast<double>(rng.NextBounded(5));
      heap.Push(Event{.time = time, .seq = seq, .a = op});
      expected.emplace(time, seq++, op);
      continue;
    }
    const Event event = heap.PopTop();
    ASSERT_EQ(std::make_tuple(event.time, event.seq, event.a),
              *expected.begin())
        << "op " << op;
    expected.erase(expected.begin());
    ASSERT_EQ(heap.size(), expected.size());
  }
  while (!heap.empty()) {
    const Event event = heap.PopTop();
    ASSERT_EQ(std::make_tuple(event.time, event.seq, event.a),
              *expected.begin());
    expected.erase(expected.begin());
  }
  EXPECT_TRUE(expected.empty());
}

// A fixed-seed mix of Push, PopTop, Pop and ReplaceTop on heaps of 0 to 64
// events, checked against a reference ordered by (time, stamp, seq). Times
// and stamps come from small ranges, so most comparisons fall through to
// the later keys.
TEST(EventHeapTest, RandomOpsPopInKeyOrder) {
  constexpr size_t kMaxSize = 64;
  using Key = std::tuple<double, uint64_t, uint64_t, int64_t>;
  const auto key = [](const Event& event) {
    return Key{event.time, event.stamp, event.seq, event.a};
  };
  EventHeap heap;
  std::set<Key> expected;
  Pcg32 rng(31);
  uint64_t seq = 0;
  for (int64_t op = 0; op < 20000; ++op) {
    const Event event{.time = static_cast<double>(rng.NextBounded(6)),
                      .stamp = rng.NextBounded(3),
                      .seq = seq++,
                      .a = op};
    // 0-1: Push, 2: PopTop, 3: Pop, 4: ReplaceTop. An empty heap pushes,
    // and a full one pops instead of pushing.
    uint32_t kind = rng.NextBounded(5);
    if (expected.empty()) kind = 0;
    if (expected.size() == kMaxSize && kind < 2) kind = 2;
    if (kind >= 2) {
      ASSERT_EQ(key(heap.Top()), *expected.begin()) << "op " << op;
    }
    switch (kind) {
      case 0:
      case 1:
        heap.Push(event);
        expected.insert(key(event));
        break;
      case 2:
        ASSERT_EQ(key(heap.PopTop()), *expected.begin()) << "op " << op;
        expected.erase(expected.begin());
        break;
      case 3:
        heap.Pop();
        expected.erase(expected.begin());
        break;
      default:
        heap.ReplaceTop(event);
        expected.erase(expected.begin());
        expected.insert(key(event));
        break;
    }
    ASSERT_EQ(heap.size(), expected.size()) << "op " << op;
  }
  while (!heap.empty()) {
    ASSERT_EQ(key(heap.PopTop()), *expected.begin());
    expected.erase(expected.begin());
  }
  EXPECT_TRUE(expected.empty());
}

// Engine options for the cases that need no particular window size.
EngineOptions UnitWindows() {
  EngineOptions options;
  options.lookahead = 1.0;
  return options;
}

TEST(EventEngineTest, ExecutesInTimeOrder) {
  Engine engine(1, UnitWindows());
  std::vector<int64_t> order;
  const int type = engine.AddHandler(
      [&](const Event& event) { order.push_back(event.a); });
  engine.MustScheduleAt(0, 3.0, type, 3);
  engine.MustScheduleAt(0, 1.0, type, 1);
  engine.MustScheduleAt(0, 2.0, type, 2);
  Result<EngineStats> stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(order, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(stats.value().events_executed, 3);
  EXPECT_DOUBLE_EQ(stats.value().end_time, 3.0);
}

TEST(EventEngineTest, HandlersCanScheduleAndSend) {
  EngineOptions options;
  options.lookahead = 0.5;  // the Send below has delay 0.5
  Engine engine(2, options);
  std::vector<double> times;
  int send_type = -1;
  const int start_type = engine.AddHandler([&](const Event& event) {
    times.push_back(event.time);
    engine.Send(event.node, 1, 0.5, event.time, send_type);
  });
  send_type = engine.AddHandler([&](const Event& event) {
    EXPECT_EQ(event.node, 1);
    times.push_back(event.time);
  });
  engine.MustScheduleAt(0, 1.0, start_type);
  Result<EngineStats> stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
  EXPECT_DOUBLE_EQ(stats.value().end_time, 1.5);
}

TEST(EventEngineTest, EmptyRunReturnsZeroStats) {
  Engine engine(4, UnitWindows());
  Result<EngineStats> stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().events_executed, 0);
  EXPECT_DOUBLE_EQ(stats.value().end_time, 0.0);
}

TEST(EventEngineTest, WindowedDeliversThroughMailboxes) {
  EngineOptions options;
  options.lookahead = 1.0;
  Engine engine(2, options);
  std::vector<double> arrivals;
  const int type = engine.AddHandler(
      [&](const Event& event) { arrivals.push_back(event.time); });
  int ping_type = -1;
  ping_type = engine.AddHandler([&](const Event& event) {
    if (event.a > 0) {
      engine.Send(event.node, 1 - event.node, 1.0, event.time, ping_type,
                  event.a - 1);
    } else {
      engine.Send(event.node, 1 - event.node, 1.0, event.time, type);
    }
  });
  engine.MustScheduleAt(0, 0.0, ping_type, 3);
  Result<EngineStats> stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(arrivals[0], 4.0);  // 4 hops of delay 1.0
  EXPECT_EQ(stats.value().messages_delivered, 4);
  EXPECT_EQ(stats.value().events_executed, 5);
  EXPECT_GE(stats.value().windows, 4);
}

// Pins the per-destination delivery order. Four sources, spread over
// different shards at 2/4/8 shards, each send two equal-time messages to one
// destination in the same window. The destination's own event at that time
// was scheduled earlier, so it runs first; the messages follow in
// (src, send_seq) order at every shard count. Each source first sends fewer
// fillers the higher its id, so send_seq order alone disagrees with it.
TEST(EventEngineTest, WindowedDeliveryOrdersTiesBySrcThenSendSeq) {
  constexpr int kNodes = 16;
  constexpr int kDst = 11;
  constexpr int kSink = 12;
  for (int shards : {1, 2, 4, 8}) {
    ThreadPool pool(static_cast<size_t>(shards));
    EngineOptions options;
    options.lookahead = 1.0;
    options.exec.num_shards = shards;
    options.exec.pool = &pool;
    Engine engine(kNodes, options);
    std::vector<int64_t> order;
    const int record = engine.AddHandler([&](const Event& event) {
      if (event.node == kDst) order.push_back(event.a);
    });
    // b = fillers to send before the two messages to kDst.
    const int burst = engine.AddHandler([&](const Event& event) {
      for (int64_t f = 0; f < event.b; ++f) {
        engine.Send(event.node, kSink, 5.0, event.time, record);
      }
      for (int64_t k = 0; k < 2; ++k) {
        engine.Send(event.node, kDst, 3.0, event.time, record,
                    10 * event.node + k);
      }
    });
    engine.MustScheduleAt(kDst, 5.0, record, -1);
    engine.MustScheduleAt(15, 2.0, burst, 0, 0);
    engine.MustScheduleAt(1, 2.0, burst, 0, 3);
    engine.MustScheduleAt(8, 2.0, burst, 0, 1);
    engine.MustScheduleAt(6, 2.0, burst, 0, 2);
    Result<EngineStats> stats = engine.Run();
    ASSERT_TRUE(stats.ok()) << "shards=" << shards;
    EXPECT_EQ(order, (std::vector<int64_t>{-1, 10, 11, 60, 61, 80, 81, 150,
                                           151}))
        << "shards=" << shards;
    EXPECT_EQ(stats.value().messages_delivered, 14) << "shards=" << shards;
  }
}

// Pins the order of every kind of event that can tie at one node. Node 11
// gets ten-odd events, all at t = 5, which must run in this order at every
// shard count:
//   -1       scheduled before Run;
//   -2       scheduled by its own handler in window [2, 3);
//   10..151  sent in that window by nodes 1, 6, 8, 10 and 15, in (src,
//            send_seq) order; each source first sends fewer fillers the
//            higher its id, so send_seq order alone disagrees with it;
//   -3       scheduled by its own handler in the next window, [3, 4);
//   1000..   sent in that window by nodes 0 and 10.
// Node 10 shares node 11's shard at every shard count, the other sources
// do not at 8 shards, and node 0 never does at more than one.
TEST(EventEngineTest, EqualTimeEventsRunInScheduleThenWindowOrder) {
  constexpr int kNodes = 16;
  constexpr int kDst = 11;
  constexpr int kSink = 12;
  constexpr double kTie = 5.0;
  for (int shards : {1, 2, 4, 8}) {
    ThreadPool pool(static_cast<size_t>(shards));
    EngineOptions options;
    options.lookahead = 1.0;
    options.exec.num_shards = shards;
    options.exec.pool = &pool;
    Engine engine(kNodes, options);
    std::vector<int64_t> order;
    const int record = engine.AddHandler([&](const Event& event) {
      if (event.node == kDst) order.push_back(event.a);
    });
    const int local = engine.AddHandler([&](const Event& event) {
      engine.MustScheduleAt(event.node, kTie, record, event.a);
    });
    // a = label base, b = fillers to send before the two messages to kDst.
    const int burst = engine.AddHandler([&](const Event& event) {
      for (int64_t f = 0; f < event.b; ++f) {
        engine.Send(event.node, kSink, 5.0, event.time, record);
      }
      for (int64_t k = 0; k < 2; ++k) {
        engine.Send(event.node, kDst, kTie - event.time, event.time, record,
                    event.a + 10 * event.node + k);
      }
    });
    engine.MustScheduleAt(3, 0.0, record);  // window [0, 1) runs first
    engine.MustScheduleAt(kDst, kTie, record, -1);
    engine.MustScheduleAt(kDst, 2.0, local, -2);
    engine.MustScheduleAt(15, 2.0, burst, 0, 0);
    engine.MustScheduleAt(1, 2.0, burst, 0, 4);
    engine.MustScheduleAt(10, 2.0, burst, 0, 1);
    engine.MustScheduleAt(8, 2.0, burst, 0, 2);
    engine.MustScheduleAt(6, 2.0, burst, 0, 3);
    engine.MustScheduleAt(10, 3.0, burst, 1000, 0);
    engine.MustScheduleAt(kDst, 3.0, local, -3);
    engine.MustScheduleAt(0, 3.0, burst, 1000, 0);
    Result<EngineStats> stats = engine.Run();
    ASSERT_TRUE(stats.ok()) << "shards=" << shards;
    EXPECT_EQ(order,
              (std::vector<int64_t>{-1, -2, 10, 11, 60, 61, 80, 81, 100, 101,
                                    150, 151, -3, 1000, 1001, 1100, 1101}))
        << "shards=" << shards;
    EXPECT_EQ(stats.value().messages_delivered, 24) << "shards=" << shards;
  }
}

// Pins the order at a node that holds three or more events at most of its
// pops, while its handlers schedule 0, 1 or 3 events on it (some at the
// current time, so they tie on seq with each other) and send to it. Node 2
// runs, with lookahead 1:
//   window [0, 1): its five events at t = 0 scheduled before Run, in seq
//     order; then their schedules at t = 0 (10, 11, 30, 41), in seq order;
//     at t = 0.5 the pre-Run 6 before 12;
//   window [1, 2): at t = 1 the pre-Run 7 and 8, then the window-0 messages
//     by src (1000 from node 0; 40 and 50 from itself, in send order; 7000
//     from node 7), then 80, scheduled by 8 in this window; at t = 1.5 the
//     pre-Run 9, which finds its queue otherwise empty, then its 90.
// Node 0 shares node 2's shard at 1 and 2 shards, node 7 only at 1.
TEST(EventEngineTest, BusyNodeRunsItsOwnSchedulesAndSendsInKeyOrder) {
  constexpr int kNodes = 8;
  constexpr int kBusy = 2;
  using Trace = std::vector<std::tuple<double, int, int, int64_t>>;
  for (int shards : {1, 2, 4, 8}) {
    ThreadPool pool(static_cast<size_t>(shards));
    EngineOptions options;
    options.lookahead = 1.0;
    options.exec.num_shards = shards;
    options.exec.pool = &pool;
    Engine engine(kNodes, options);
    // Each node appends only to its own trace, so the parties do not race.
    std::vector<Trace> traces(kNodes);
    const auto record = [&traces](const Event& event) {
      traces[static_cast<size_t>(event.node)].emplace_back(
          event.time, event.node, event.type, event.a);
    };
    const int plain = engine.AddHandler(record);
    const int none = engine.AddHandler(record);
    const int one = engine.AddHandler([&](const Event& event) {
      record(event);
      engine.MustScheduleAt(event.node, event.time, plain, 10 * event.a);
    });
    const int three = engine.AddHandler([&](const Event& event) {
      record(event);
      engine.MustScheduleAt(event.node, event.time, plain, 10 * event.a);
      engine.MustScheduleAt(event.node, event.time, plain, 10 * event.a + 1);
      engine.MustScheduleAt(event.node, event.time + 0.5, plain,
                            10 * event.a + 2);
    });
    const int send_then_one = engine.AddHandler([&](const Event& event) {
      record(event);
      engine.Send(event.node, event.node, 1.0, event.time, plain,
                  10 * event.a);
      engine.MustScheduleAt(event.node, event.time, plain, 10 * event.a + 1);
    });
    const int send_only = engine.AddHandler([&](const Event& event) {
      record(event);
      engine.Send(event.node, event.node, 1.0, event.time, plain,
                  10 * event.a);
    });
    const int send_to_busy = engine.AddHandler([&](const Event& event) {
      record(event);
      engine.Send(event.node, kBusy, 1.0, event.time, plain, 10 * event.a);
    });
    engine.MustScheduleAt(kBusy, 0.0, three, 1);
    engine.MustScheduleAt(kBusy, 0.0, none, 2);
    engine.MustScheduleAt(kBusy, 0.0, one, 3);
    engine.MustScheduleAt(kBusy, 0.0, send_then_one, 4);
    engine.MustScheduleAt(kBusy, 0.0, send_only, 5);
    engine.MustScheduleAt(kBusy, 0.5, plain, 6);
    engine.MustScheduleAt(kBusy, 1.0, none, 7);
    engine.MustScheduleAt(kBusy, 1.0, one, 8);
    engine.MustScheduleAt(kBusy, 1.5, one, 9);
    engine.MustScheduleAt(0, 0.0, send_to_busy, 100);
    engine.MustScheduleAt(7, 0.0, send_to_busy, 700);
    Result<EngineStats> stats = engine.Run();
    ASSERT_TRUE(stats.ok()) << "shards=" << shards;

    std::vector<Trace> expected(kNodes);
    expected[0] = {{0.0, 0, send_to_busy, 100}};
    expected[7] = {{0.0, 7, send_to_busy, 700}};
    expected[kBusy] = {
        {0.0, kBusy, three, 1},        {0.0, kBusy, none, 2},
        {0.0, kBusy, one, 3},          {0.0, kBusy, send_then_one, 4},
        {0.0, kBusy, send_only, 5},    {0.0, kBusy, plain, 10},
        {0.0, kBusy, plain, 11},       {0.0, kBusy, plain, 30},
        {0.0, kBusy, plain, 41},       {0.5, kBusy, plain, 6},
        {0.5, kBusy, plain, 12},       {1.0, kBusy, none, 7},
        {1.0, kBusy, one, 8},          {1.0, kBusy, plain, 1000},
        {1.0, kBusy, plain, 40},       {1.0, kBusy, plain, 50},
        {1.0, kBusy, plain, 7000},     {1.0, kBusy, plain, 80},
        {1.5, kBusy, one, 9},          {1.5, kBusy, plain, 90}};
    EXPECT_EQ(traces, expected) << "shards=" << shards;
    EXPECT_EQ(stats.value().events_executed, 22) << "shards=" << shards;
    EXPECT_EQ(stats.value().messages_delivered, 4) << "shards=" << shards;
    EXPECT_EQ(stats.value().windows, 2) << "shards=" << shards;
  }
}

// One run of a two-node engine whose only message is sent before Run:
// Send(0 -> 1, delay 0.1) at time 0, optionally behind a local event on
// node 0 at t = 1.0. Records (node, time) per executed event.
Result<EngineStats> RunSendBeforeRun(
    int shards, bool local_event, std::vector<std::pair<int, double>>* order) {
  ThreadPool pool(static_cast<size_t>(shards));
  EngineOptions options;
  options.lookahead = 0.1;
  options.exec.num_shards = shards;
  options.exec.pool = &pool;
  Engine engine(2, options);
  const int record = engine.AddHandler([order](const Event& event) {
    order->emplace_back(event.node, event.time);
  });
  if (local_event) engine.MustScheduleAt(0, 1.0, record);
  engine.Send(0, 1, 0.1, 0.0, record);
  return engine.Run();
}

TEST(EventEngineTest, SendBeforeRunSchedulesInCallOrder) {
  for (bool local_event : {true, false}) {
    const std::vector<std::pair<int, double>> expected =
        local_event
            ? std::vector<std::pair<int, double>>{{1, 0.1}, {0, 1.0}}
            : std::vector<std::pair<int, double>>{{1, 0.1}};
    for (int shards : {1, 2, 4}) {
      std::vector<std::pair<int, double>> order;
      Result<EngineStats> stats = RunSendBeforeRun(shards, local_event, &order);
      ASSERT_TRUE(stats.ok()) << "shards=" << shards;
      EXPECT_EQ(order, expected)
          << "shards=" << shards << " local_event=" << local_event;
      EXPECT_EQ(stats.value().events_executed,
                static_cast<int64_t>(expected.size()))
          << "shards=" << shards << " local_event=" << local_event;
      // A send made before Run is scheduled at once, not delivered.
      EXPECT_EQ(stats.value().messages_delivered, 0)
          << "shards=" << shards << " local_event=" << local_event;
      EXPECT_EQ(stats.value().end_time, expected.back().second);
    }
  }
}

TEST(EventEngineTest, MaxEventsGuardTurnsRunawayChainIntoError) {
  // A self-rescheduling chain that would hang forever without the guard.
  EngineOptions options = UnitWindows();
  options.max_events = 100;
  Engine engine(1, options);
  int type = -1;
  type = engine.AddHandler([&](const Event& event) {
    engine.MustScheduleAt(0, event.time + 1.0, type);
  });
  engine.MustScheduleAt(0, 0.0, type);
  Result<EngineStats> stats = engine.Run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

TEST(EventEngineTest, MaxEventsGuardTripsInWindowedMode) {
  EngineOptions options;
  options.lookahead = 0.5;
  options.max_events = 100;
  Engine engine(2, options);
  int type = -1;
  type = engine.AddHandler([&](const Event& event) {
    engine.Send(event.node, 1 - event.node, 0.5, event.time, type);
  });
  engine.MustScheduleAt(0, 0.0, type);
  Result<EngineStats> stats = engine.Run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

TEST(EventEngineTest, MaxEventsGuardTripsOnSameWindowChain) {
  // Self-rescheduling inside one window: StepShard's per-window budget, not
  // the barrier check, must catch it.
  EngineOptions options;
  options.lookahead = 1e6;  // the whole chain fits in the first window
  options.max_events = 50;
  Engine engine(1, options);
  int type = -1;
  type = engine.AddHandler([&](const Event& event) {
    engine.MustScheduleAt(0, event.time + 1.0, type);
  });
  engine.MustScheduleAt(0, 0.0, type);
  Result<EngineStats> stats = engine.Run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

// Four chains, one per node, stop advancing time at t = 3, so the fourth
// window never ends. Every shard may spend only what is left of max_events,
// and the error counts only the windows before the trip, so the message is
// the same at every shard count. A completing run on the same pool follows
// each trip: it hangs or fails if a party of the tripped run still holds a
// pool thread.
TEST(EventEngineTest, MaxEventsGuardMessageIsShardInvariant) {
  for (int shards : {1, 2, 4, 8}) {
    ThreadPool pool(static_cast<size_t>(shards));
    EngineOptions options;
    options.lookahead = 1.0;
    options.max_events = 20;
    options.exec.num_shards = shards;
    options.exec.pool = &pool;
    Engine engine(4, options);
    int type = -1;
    type = engine.AddHandler([&](const Event& event) {
      const double step = event.time < 3.0 ? 1.0 : 0.0;
      engine.MustScheduleAt(event.node, event.time + step, type);
    });
    for (int node = 0; node < 4; ++node) engine.MustScheduleAt(node, 0.0, type);
    Result<EngineStats> stats = engine.Run();
    ASSERT_FALSE(stats.ok()) << "shards=" << shards;
    EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(stats.status().message(),
              "event count exceeded max_events=20 in the window starting at "
              "t=3.000000 (12 events executed, sim time reached 2.000000)")
        << "shards=" << shards;

    // Each node passes a token on until t = 3: 16 events, 12 messages.
    Engine next(4, options);
    int hop = -1;
    hop = next.AddHandler([&](const Event& event) {
      if (event.time < 3.0) {
        next.Send(event.node, (event.node + 1) % 4, 1.0, event.time, hop);
      }
    });
    for (int node = 0; node < 4; ++node) next.MustScheduleAt(node, 0.0, hop);
    Result<EngineStats> done = next.Run();
    ASSERT_TRUE(done.ok()) << "shards=" << shards;
    EXPECT_EQ(done.value().events_executed, 16);
    EXPECT_EQ(done.value().windows, 4);
    EXPECT_EQ(done.value().messages_delivered, 12);
    EXPECT_EQ(done.value().end_time, 3.0);
  }
}

TEST(EventEngineTest, LookaheadMustBeFiniteAndPositive) {
  ThreadPool pool(2);
  for (double lookahead :
       {0.0, -1.0, kInf, std::numeric_limits<double>::quiet_NaN()}) {
    for (int shards : {1, 2}) {
      EngineOptions options;
      options.lookahead = lookahead;
      options.exec.num_shards = shards;
      options.exec.pool = &pool;
      Engine engine(2, options);
      const int type = engine.AddHandler([](const Event&) {});
      engine.MustScheduleAt(0, 0.0, type);
      Result<EngineStats> stats = engine.Run();
      ASSERT_FALSE(stats.ok()) << lookahead << " shards=" << shards;
      EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(stats.status().message().find("lookahead"), std::string::npos);
    }
  }
  // Default options leave the lookahead unset.
  Result<EngineStats> unset = Engine(2, EngineOptions{}).Run();
  ASSERT_FALSE(unset.ok());
  EXPECT_EQ(unset.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unset.status().message().find("lookahead"), std::string::npos);
}

TEST(EventEngineTest, RingScaleRejectsNonFiniteLink) {
  // The link's wire time becomes the engine lookahead; a NaN or infinite
  // link must be an InvalidArgument, not an abort inside Send().
  for (core::LinkSpec link :
       {core::LinkSpec{.bandwidth_bps = 1e9,
                       .latency_s = std::numeric_limits<double>::quiet_NaN()},
        core::LinkSpec{.bandwidth_bps = 1e9, .latency_s = kInf},
        core::LinkSpec{.bandwidth_bps = kInf, .latency_s = 1e-5}}) {
    RingScaleConfig config;
    config.num_nodes = 8;
    config.bits = 8 * 8000;
    config.link = link;
    Result<ScaleStats> stats = SimulateRingAllReduceAtScale(config);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EventEngineTest, GuardsLeaveCompletingRunsUntouched) {
  EngineOptions options = UnitWindows();
  options.max_events = 10;
  Engine engine(1, options);
  const int type = engine.AddHandler([](const Event&) {});
  for (int i = 0; i < 5; ++i) {
    engine.MustScheduleAt(0, static_cast<double>(i), type);
  }
  Result<EngineStats> stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().events_executed, 5);
}

TEST(EventEngineTest, GuardErrorsReportProgressCounters) {
  EngineOptions options = UnitWindows();
  options.max_events = 7;
  Engine engine(1, options);
  int type = -1;
  type = engine.AddHandler([&](const Event& event) {
    engine.MustScheduleAt(0, event.time + 1.0, type);
  });
  engine.MustScheduleAt(0, 0.0, type);
  Result<EngineStats> stats = engine.Run();
  ASSERT_FALSE(stats.ok());
  // The guard message must say how far the run got before tripping, so a
  // failed capacity run is diagnosable without a rerun.
  EXPECT_NE(stats.status().message().find("7 events executed"),
            std::string::npos);
  EXPECT_NE(stats.status().message().find("sim time reached"),
            std::string::npos);
}

TEST(EventEngineTest, ScheduleAtOutOfRangeNodeIsInvalidArgument) {
  Engine engine(4, UnitWindows());
  const int type = engine.AddHandler([](const Event&) {});
  Status high = engine.ScheduleAt(4, 0.0, type);
  EXPECT_EQ(high.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(high.message().find("4"), std::string::npos);
  EXPECT_EQ(engine.ScheduleAt(-1, 0.0, type).code(),
            StatusCode::kInvalidArgument);
  // In-range scheduling is unaffected.
  EXPECT_TRUE(engine.ScheduleAt(3, 0.0, type).ok());
  ASSERT_TRUE(engine.Run().ok());
}

TEST(EventEngineTest, ShardedRunRequiresPool) {
  EngineOptions options;
  options.lookahead = 1.0;
  options.exec.num_shards = 2;  // no pool
  Engine engine(4, options);
  Result<EngineStats> stats = engine.Run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dmlscale::sim
