#ifndef DMLSCALE_SIM_FAULT_INJECTOR_H_
#define DMLSCALE_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/faults.h"
#include "sim/event_engine.h"

namespace dmlscale::sim {

/// What AdmitOrRetry does with an event delivered to a DOWN node: redeliver
/// it to the same node after `timeout_s * backoff^attempt`, dropping it once
/// `max_attempts` deliveries have been tried. The attempt counter travels in
/// the event's `b` payload field, so handlers guarded by AdmitOrRetry must
/// reserve `b` for the injector.
struct RetryPolicy {
  int max_attempts = 8;
  double timeout_s = 0.0;  // must be > 0 where crashes are armed
  double backoff = 2.0;

  [[nodiscard]] Status Validate() const;
};

/// Drives a core::FaultSpec through a sim::Engine: typed crash / recover /
/// degrade / restore events scheduled into the existing per-node calendar
/// queues, a per-node down mask, and retry/backoff redelivery for events
/// that arrive at a dead node.
///
/// Determinism under windowed sharding follows from the engine's own
/// contract, because every piece of injector state is NODE-OWNED:
///  - a node's crash/recover (and degrade/restore) chain is a sequence of
///    node-local events on that node, drawing uptimes from that node's
///    derived `Pcg32` stream in node-local event order;
///  - the down mask, incarnation, and degrade flag of node i are written by
///    i's handlers and read only from i's handlers (AdmitOrRetry runs on the
///    DESTINATION node; LinkFactor/SampleSlowdown take the calling node);
///  - cross-node crash notifications go through Send(), which the engine
///    delivers to each destination in (arrival time, src, send seq) order
///    after the window they were sent in.
/// Hence serial and 2/4/8-shard runs are bit-identical, fault events
/// included (property-tested in engine_determinism_test).
class FaultInjector {
 public:
  struct Options {
    core::FaultSpec spec;
    /// Base seed of the per-node fault streams. Salt it away from any worker
    /// streams the scenario derives from its own seed (see kFaultSeedSalt).
    uint64_t seed = 1;
    RetryPolicy retry;
    /// >= 0: every crash of node i Sends an event of `notify_type`
    /// (a = node, b = new incarnation) to `notify_node` after
    /// `notify_delay_s` (which must respect the engine lookahead).
    int notify_node = -1;
    int notify_type = -1;
    double notify_delay_s = 0.0;
  };

  /// Deterministic per-node fault counters, summed over nodes post-run.
  struct Counters {
    int64_t crashes = 0;
    int64_t recoveries = 0;
    int64_t degrades = 0;
    int64_t retries = 0;
    int64_t drops = 0;
  };

  /// Registers the injector's crash/recover/degrade/restore handlers on
  /// `engine` (not owned; must outlive the injector). Construct before
  /// scheduling, like any handler registration.
  FaultInjector(Engine* engine, const Options& options);

  /// Schedules the first crash (and first link degrade) for every node in
  /// [first_node, last_node). Call before Engine::Run. No-op for fault
  /// processes the spec disables.
  [[nodiscard]] Status Arm(int first_node, int last_node);

  /// Node-owned state queries — call only from handlers dispatched on
  /// `node` (or after Run).
  bool IsUp(int node) const;
  int64_t Incarnation(int node) const;
  /// Current wire-time multiplier of the node's out-link (>= 1).
  double LinkFactor(int node) const;

  /// Stops all future faults on `node` (its pending chain event becomes a
  /// no-op). Call from the node's own handler when it finishes its work, so
  /// the crash chain cannot keep the engine alive forever.
  void Retire(int node);

  /// Delivery guard for handlers whose events may arrive at a dead node:
  /// returns true when the node is up (process the event now); otherwise
  /// reschedules the event on the same node per the RetryPolicy (or drops
  /// it after max_attempts) and returns false. Reserves `event.b` as the
  /// attempt counter.
  bool AdmitOrRetry(const Event& event);

  /// One straggler slowdown draw from the node's jitter stream
  /// (speculation-capped under kSpeculativeReexec).
  double SampleSlowdown(int node);

  /// Sum of the per-node counters — a pure function of the schedule, so
  /// shard-count-invariant.
  Counters TotalCounters() const;

  /// Runs inside the injector's crash / recover handler ON the affected
  /// node — the hook where a scenario rolls state back to a checkpoint or
  /// restarts the node's work loop. Set before scheduling.
  void SetOnCrash(std::function<void(const Event& event)> fn);
  void SetOnRecover(std::function<void(const Event& event)> fn);

 private:
  struct NodeState {
    bool up = true;
    bool retired = false;
    bool degraded = false;
    int64_t incarnation = 0;
    Pcg32 crash;
    Pcg32 link;
    Pcg32 jitter;
    Counters counters;
  };

  NodeState& StateOf(int node);
  const NodeState& StateOf(int node) const;

  Engine* engine_;
  Options options_;
  core::FaultModel model_;
  std::vector<NodeState> nodes_;
  std::function<void(const Event&)> on_crash_;
  std::function<void(const Event&)> on_recover_;
  int crash_type_ = -1;
  int recover_type_ = -1;
  int degrade_type_ = -1;
  int restore_type_ = -1;
};

/// The DeriveSeed salt scenarios use to split their injector seed space
/// from their worker-stream seed space (worker streams typically use
/// DeriveSeed(seed, worker), so a raw shared seed would alias node 0).
inline constexpr uint64_t kFaultSeedSalt = 0xFA171CEEDULL;

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_FAULT_INJECTOR_H_
