#include "sim/fault_injector.h"

#include <string>

#include "common/check.h"

namespace dmlscale::sim {

FaultInjector::FaultInjector(Engine* engine, const Options& options)
    : engine_(engine),
      options_(options),
      model_(options.spec, options.seed) {
  DMLSCALE_CHECK(engine != nullptr);
  const int n = engine->num_nodes();
  nodes_.reserve(static_cast<size_t>(n));
  for (int node = 0; node < n; ++node) {
    NodeState state;
    state.crash = model_.CrashStream(node);
    nodes_.push_back(state);
  }
  crash_type_ = engine_->AddHandler([this](const Event& event) {
    NodeState& state = StateOf(event.node);
    if (state.retired) return;
    ++state.counters.crashes;
    if (options_.notify_node >= 0 && options_.notify_type >= 0) {
      engine_->Send(event.node, options_.notify_node, options_.notify_delay_s,
                    event.time, options_.notify_type, event.node);
    }
    engine_->MustScheduleAt(event.node,
                            event.time + options_.spec.mttr_seconds,
                            recover_type_);
  });
  recover_type_ = engine_->AddHandler([this](const Event& event) {
    NodeState& state = StateOf(event.node);
    if (state.retired) return;
    ++state.counters.recoveries;
    engine_->MustScheduleAt(event.node,
                            event.time + model_.NextUptime(&state.crash),
                            crash_type_);
  });
}

Status FaultInjector::Arm(int first_node, int last_node) {
  if (first_node < 0 || last_node > engine_->num_nodes() ||
      first_node >= last_node) {
    return Status::InvalidArgument(
        "Arm range [" + std::to_string(first_node) + ", " +
        std::to_string(last_node) + ") is not a non-empty slice of [0, " +
        std::to_string(engine_->num_nodes()) + ")");
  }
  DMLSCALE_RETURN_NOT_OK(options_.spec.Validate());
  if (options_.notify_node >= 0 &&
      (options_.notify_node >= engine_->num_nodes() ||
       options_.notify_type < 0)) {
    return Status::InvalidArgument(
        "notify_node " + std::to_string(options_.notify_node) +
        " needs a valid node id and a notify_type handler id");
  }
  if (!options_.spec.CrashesEnabled()) return Status::OK();
  for (int node = first_node; node < last_node; ++node) {
    engine_->MustScheduleAt(node, model_.NextUptime(&StateOf(node).crash),
                            crash_type_);
  }
  return Status::OK();
}

void FaultInjector::Retire(int node) { StateOf(node).retired = true; }

FaultInjector::Counters FaultInjector::TotalCounters() const {
  Counters total;
  for (const NodeState& state : nodes_) {
    total.crashes += state.counters.crashes;
    total.recoveries += state.counters.recoveries;
  }
  return total;
}

FaultInjector::NodeState& FaultInjector::StateOf(int node) {
  DMLSCALE_CHECK(node >= 0 && node < static_cast<int>(nodes_.size()));
  return nodes_[static_cast<size_t>(node)];
}

}  // namespace dmlscale::sim
