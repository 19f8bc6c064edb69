#ifndef DMLSCALE_SIM_FAULT_INJECTOR_H_
#define DMLSCALE_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/faults.h"
#include "sim/event_engine.h"

namespace dmlscale::sim {

/// Drives a core::FaultSpec's crash process through a sim::Engine: typed
/// crash / recover events scheduled into the existing per-node calendar
/// queues, each crash optionally notified to one node.
///
/// Determinism under windowed sharding follows from the engine's own
/// contract, because every piece of injector state is NODE-OWNED:
///  - a node's crash/recover chain is a sequence of node-local events on
///    that node, drawing uptimes from that node's derived `Pcg32` stream in
///    node-local event order;
///  - the retired flag and counters of node i are written by i's handlers
///    (Retire is called from a handler on i);
///  - cross-node crash notifications go through Send(), which the engine
///    delivers to each destination in (arrival time, src, send seq) order
///    after the window they were sent in.
/// Hence serial and 2/4/8-shard runs are bit-identical, fault events
/// included (property-tested in fault_scenarios_test).
class FaultInjector {
 public:
  struct Options {
    core::FaultSpec spec;
    /// Base seed of the per-node fault streams. Salt it away from any worker
    /// streams the scenario derives from its own seed (see kFaultSeedSalt).
    uint64_t seed = 1;
    /// >= 0: every crash of node i Sends an event of `notify_type`
    /// (a = node) to `notify_node` after `notify_delay_s` (which must
    /// respect the engine lookahead).
    int notify_node = -1;
    int notify_type = -1;
    double notify_delay_s = 0.0;
  };

  /// Deterministic per-node fault counters, summed over nodes post-run.
  struct Counters {
    int64_t crashes = 0;
    int64_t recoveries = 0;
  };

  /// Registers the injector's crash/recover handlers on `engine` (not
  /// owned; must outlive the injector). Construct before scheduling, like
  /// any handler registration.
  FaultInjector(Engine* engine, const Options& options);

  /// Schedules the first crash for every node in [first_node, last_node).
  /// Call before Engine::Run. No-op when the spec disables crashes.
  [[nodiscard]] Status Arm(int first_node, int last_node);

  /// Stops all future faults on `node` (its pending chain event becomes a
  /// no-op). Call from the node's own handler when it finishes its work, so
  /// the crash chain cannot keep the engine alive forever.
  void Retire(int node);

  /// Sum of the per-node counters — a pure function of the schedule, so
  /// shard-count-invariant.
  Counters TotalCounters() const;

 private:
  struct NodeState {
    bool retired = false;
    Pcg32 crash;
    Counters counters;
  };

  NodeState& StateOf(int node);

  Engine* engine_;
  Options options_;
  core::FaultModel model_;
  std::vector<NodeState> nodes_;
  int crash_type_ = -1;
  int recover_type_ = -1;
};

/// The DeriveSeed salt scenarios use to split their injector seed space
/// from their worker-stream seed space (worker streams typically use
/// DeriveSeed(seed, worker), so a raw shared seed would alias node 0).
inline constexpr uint64_t kFaultSeedSalt = 0xFA171CEEDULL;

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_FAULT_INJECTOR_H_
