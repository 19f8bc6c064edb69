#include "api/scenario.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "api/faults.h"
#include "api/registry.h"
#include "api/serving.h"
#include "common/check.h"
#include "core/computation_model.h"

namespace dmlscale::api {

double Scenario::Seconds(int n) const {
  return ComputeSeconds(n) + CommSeconds(n);
}

double Scenario::ComputeSeconds(int n) const {
  return compute_coefficient_ * static_cast<double>(supersteps_) *
         step_->ComputeSeconds(n);
}

double Scenario::CommSeconds(int n) const {
  return comm_coefficient_ * static_cast<double>(supersteps_) *
         step_->CommSeconds(n);
}

Scenario Scenario::Calibrated(double compute_coefficient,
                              double comm_coefficient,
                              const std::string& suffix) const {
  DMLSCALE_CHECK(std::isfinite(compute_coefficient) &&
                 compute_coefficient > 0.0);
  DMLSCALE_CHECK(std::isfinite(comm_coefficient) && comm_coefficient > 0.0);
  Scenario calibrated = *this;
  calibrated.name_ = name_ + suffix;
  calibrated.compute_coefficient_ *= compute_coefficient;
  calibrated.comm_coefficient_ *= comm_coefficient;
  return calibrated;
}

namespace {

/// 64-bit FNV-1a; stable across platforms, cheap, and collision-safe enough
/// for an in-process memo cache (a collision only merges two cache rows).
uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void AppendExact(std::string* blob, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g;", value);
  *blob += buf;
}

}  // namespace

std::string Scenario::CacheKey() const {
  std::string blob = name_;
  blob += '|';
  blob += compute_name_;
  blob += '|';
  blob += comm_name_;
  blob += '|';
  blob += comm_label();  // carries the network decoration
  blob += '|';
  for (const auto& [key, value] : compute_params_.values()) {
    blob += key;
    blob += '=';
    AppendExact(&blob, value);
  }
  blob += '|';
  for (const auto& [key, value] : comm_params_.values()) {
    blob += key;
    blob += '=';
    AppendExact(&blob, value);
  }
  for (const auto& [key, value] : comm_params_.strings()) {
    blob += key;
    blob += '=';
    blob += value;
    blob += ';';
  }
  blob += '|';
  // Fault keys: two cells differing only in mtbf share neither expected
  // slowdown nor availability, so they must not share a memo row.
  for (const auto& [key, value] : fault_params_.values()) {
    blob += key;
    blob += '=';
    AppendExact(&blob, value);
  }
  for (const auto& [key, value] : fault_params_.strings()) {
    blob += key;
    blob += '=';
    blob += value;
    blob += ';';
  }
  blob += '|';
  // Serving keys: the full serving decoration is part of the model — two
  // cells differing only in `hit_rate` price different latencies, so they
  // must not share a memo row.
  for (const auto& [key, value] : serving_params_.values()) {
    blob += key;
    blob += '=';
    AppendExact(&blob, value);
  }
  for (const auto& [key, value] : serving_params_.strings()) {
    blob += key;
    blob += '=';
    blob += value;
    blob += ';';
  }
  blob += '|';
  AppendExact(&blob, cluster_.node.EffectiveFlops());
  AppendExact(&blob, cluster_.link.bandwidth_bps);
  AppendExact(&blob, cluster_.link.latency_s);
  AppendExact(&blob, static_cast<double>(supersteps_));
  AppendExact(&blob, compute_coefficient_);
  AppendExact(&blob, comm_coefficient_);

  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(
                    Fnv1a(blob, 0xcbf29ce484222325ULL)));
  return name_ + "#" + digest;
}

Result<core::SpeedupCurve> Scenario::Speedup(int max_nodes,
                                             int reference_n) const {
  if (max_nodes <= 0) max_nodes = cluster_.max_nodes;
  return core::SpeedupAnalyzer::Compute(*this, max_nodes, reference_n);
}

Scenario::Builder& Scenario::Builder::Name(std::string name) {
  name_ = std::move(name);
  return *this;
}

Scenario::Builder& Scenario::Builder::Hardware(core::NodeSpec node) {
  node_ = std::move(node);
  return *this;
}

Scenario::Builder& Scenario::Builder::Hardware(
    const core::ClusterSpec& cluster) {
  node_ = cluster.node;
  link_ = cluster.link;
  max_nodes_ = cluster.max_nodes;
  shared_memory_ = cluster.shared_memory;
  return *this;
}

Scenario::Builder& Scenario::Builder::Link(core::LinkSpec link) {
  link_ = link;
  return *this;
}

Scenario::Builder& Scenario::Builder::MaxNodes(int max_nodes) {
  max_nodes_ = max_nodes;
  return *this;
}

Scenario::Builder& Scenario::Builder::SharedMemory(bool shared) {
  shared_memory_ = shared;
  return *this;
}

Scenario::Builder& Scenario::Builder::Compute(std::string model,
                                              ModelParams params) {
  has_compute_ = true;
  compute_model_ = std::move(model);
  compute_params_ = std::move(params);
  compute_fn_ = nullptr;
  return *this;
}

Scenario::Builder& Scenario::Builder::Compute(
    std::function<double(int)> max_share_flops, std::string label) {
  has_compute_ = true;
  compute_model_.clear();
  compute_params_ = ModelParams();
  compute_fn_ = std::move(max_share_flops);
  compute_label_ = std::move(label);
  return *this;
}

Scenario::Builder& Scenario::Builder::Comm(std::string model,
                                           ModelParams params) {
  has_comm_ = true;
  comm_model_ = std::move(model);
  comm_params_ = std::move(params);
  return *this;
}

Scenario::Builder& Scenario::Builder::Faults(ModelParams params) {
  fault_params_ = std::move(params);
  return *this;
}

Scenario::Builder& Scenario::Builder::Serving(ModelParams params) {
  serving_params_ = std::move(params);
  return *this;
}

Scenario::Builder& Scenario::Builder::Supersteps(int count) {
  supersteps_ = count;
  return *this;
}

Scenario::Builder& Scenario::Builder::WithCalibration(
    double compute_coefficient, double comm_coefficient) {
  compute_coefficient_ = compute_coefficient;
  comm_coefficient_ = comm_coefficient;
  return *this;
}

Result<Scenario> Scenario::Builder::Build() const {
  if (!node_.has_value()) {
    return Status::FailedPrecondition(
        "scenario '" + name_ + "': no hardware; call Hardware(NodeSpec)");
  }
  DMLSCALE_RETURN_NOT_OK(node_->Validate());

  // Shared-memory scenarios never price the link, so it may be omitted; a
  // distributed scenario without a link cannot cost communication.
  core::LinkSpec link;
  if (link_.has_value()) {
    link = *link_;
    DMLSCALE_RETURN_NOT_OK(link.Validate());
  } else if (!shared_memory_) {
    return Status::FailedPrecondition(
        "scenario '" + name_ +
        "': no interconnect; call Link(LinkSpec) or SharedMemory()");
  }

  if (max_nodes_ < 1) {
    return Status::InvalidArgument("scenario '" + name_ +
                                   "': max_nodes must be >= 1");
  }
  if (max_nodes_ > kMaxNodesLimit) {
    return Status::InvalidArgument("scenario '" + name_ +
                                   "': max_nodes must be <= " +
                                   std::to_string(kMaxNodesLimit));
  }
  if (supersteps_ < 1) {
    return Status::InvalidArgument("scenario '" + name_ +
                                   "': supersteps must be >= 1");
  }
  if (!std::isfinite(compute_coefficient_) || compute_coefficient_ <= 0.0 ||
      !std::isfinite(comm_coefficient_) || comm_coefficient_ <= 0.0) {
    return Status::InvalidArgument(
        "scenario '" + name_ +
        "': calibration coefficients must be finite and > 0");
  }
  if (!has_compute_) {
    return Status::FailedPrecondition(
        "scenario '" + name_ +
        "': no computation model; call Compute(name, params). Registered "
        "models:\n" +
        ComputeModels().Help());
  }

  std::unique_ptr<core::ComputationModel> compute;
  std::string compute_name;
  if (compute_fn_) {
    compute = std::make_unique<core::BottleneckCompute>(compute_fn_, *node_,
                                                        compute_label_);
    compute_name = compute_label_;
  } else {
    DMLSCALE_ASSIGN_OR_RETURN(
        compute, ComputeModels().Create(compute_model_, compute_params_,
                                        *node_));
    compute_name = compute_model_;
  }

  std::string comm_name = comm_model_;
  ModelParams comm_params = comm_params_;
  if (!has_comm_) {
    if (!shared_memory_) {
      return Status::FailedPrecondition(
          "scenario '" + name_ +
          "': no communication model; call Comm(name, params) or "
          "SharedMemory(). Registered models:\n" +
          CommModels().Help());
    }
    comm_name = "shared-memory";
    comm_params = ModelParams();
  } else if (!link_.has_value() && comm_name != "shared-memory") {
    // Without this check the zero-bandwidth default link would reach the
    // factory and trip the model constructor's CHECK instead of returning.
    return Status::FailedPrecondition(
        "scenario '" + name_ + "': comm model '" + comm_name +
        "' prices the interconnect; call Link(LinkSpec)");
  }
  DMLSCALE_ASSIGN_OR_RETURN(
      std::unique_ptr<core::CommunicationModel> comm,
      CommModels().Create(comm_name, comm_params, link));

  DMLSCALE_ASSIGN_OR_RETURN(core::FaultSpec faults,
                            ResolveFaultSpec(fault_params_));

  DMLSCALE_ASSIGN_OR_RETURN(serve::ServingSpec serving,
                            ResolveServingSpec(serving_params_, link));
  const bool serving_aware =
      !serving_params_.values().empty() || !serving_params_.strings().empty();

  Scenario scenario;
  scenario.name_ = name_;
  scenario.cluster_ = core::ClusterSpec{.node = *node_,
                                        .link = link,
                                        .max_nodes = max_nodes_,
                                        .shared_memory = shared_memory_};
  scenario.supersteps_ = supersteps_;
  scenario.step_ = std::make_shared<const core::Superstep>(
      std::move(compute), std::move(comm), name_ + "-superstep");
  scenario.compute_name_ = std::move(compute_name);
  scenario.comm_name_ = std::move(comm_name);
  scenario.compute_params_ = compute_params_;
  scenario.callable_compute_ = compute_fn_ != nullptr;
  scenario.comm_params_ = std::move(comm_params);
  scenario.faults_ = faults;
  scenario.fault_params_ = fault_params_;
  scenario.serving_ = serving;
  scenario.serving_params_ = serving_params_;
  scenario.serving_aware_ = serving_aware;
  scenario.compute_coefficient_ = compute_coefficient_;
  scenario.comm_coefficient_ = comm_coefficient_;
  return scenario;
}

}  // namespace dmlscale::api
