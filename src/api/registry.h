#ifndef DMLSCALE_API_REGISTRY_H_
#define DMLSCALE_API_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/params.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/communication_model.h"
#include "core/computation_model.h"
#include "core/hardware.h"

namespace dmlscale::api {

/// String-keyed factory registry for the pluggable model families, in the
/// spirit of Graphite's config-selected network models. A factory receives
/// the user's `ModelParams` plus the hardware spec the model runs against
/// (NodeSpec for computation, LinkSpec for communication) and returns the
/// constructed model or a validation error.
///
/// Lookup is by exact name; a miss returns kNotFound listing every
/// registered name, so `--comm=treee` produces an actionable message and
/// `--help` output can enumerate the menu via `Names()` / `Help()`.
template <typename ModelT, typename SpecT>
class ModelRegistry {
 public:
  using Factory = std::function<Result<std::unique_ptr<ModelT>>(
      const ModelParams& params, const SpecT& spec)>;

  /// Registers `factory` under `name`. `params_help` is a one-line summary
  /// of the accepted parameters, surfaced by Help(); `example` is a bag the
  /// factory is guaranteed to accept (property tests construct every entry
  /// from it). Duplicate names are a programming error: kFailedPrecondition.
  [[nodiscard]] Status Register(const std::string& name,
                                std::string params_help, Factory factory,
                                ModelParams example = {}) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (name.empty()) {
      return Status::InvalidArgument("model name must not be empty");
    }
    auto [it, inserted] = entries_.emplace(
        name, Entry{std::move(params_help), std::move(factory),
                    std::move(example)});
    if (!inserted) {
      return Status::FailedPrecondition("model '" + name +
                                        "' is already registered");
    }
    return Status::OK();
  }

  /// Constructs the model registered under `name`.
  [[nodiscard]] Result<std::unique_ptr<ModelT>> Create(
      const std::string& name, const ModelParams& params,
      const SpecT& spec) const {
    Factory factory;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(name);
      if (it == entries_.end()) {
        std::vector<std::string> names;
        names.reserve(entries_.size());
        for (const auto& [key, entry] : entries_) names.push_back(key);
        return Status::NotFound("unknown model '" + name +
                                "'; registered models: " +
                                Join(names, ", ", "<none>"));
      }
      factory = it->second.factory;
    }
    return factory(params, spec);
  }

  bool Contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.contains(name);
  }

  /// The documented example parameter bag registered for `name` (possibly
  /// empty); kNotFound for unknown names.
  [[nodiscard]] Result<ModelParams> Example(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("unknown model '" + name + "'");
    }
    return it->second.example;
  }

  /// All registered names, sorted (std::map order).
  std::vector<std::string> Names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
    return names;
  }

  /// "name — params" lines for `--help` text.
  std::string Help() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    for (const auto& [name, entry] : entries_) {
      out += "  " + name + " — " + entry.params_help + "\n";
    }
    return out;
  }

 private:
  struct Entry {
    std::string params_help;
    Factory factory;
    ModelParams example;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

using ComputeModelRegistry =
    ModelRegistry<core::ComputationModel, core::NodeSpec>;
using CommModelRegistry =
    ModelRegistry<core::CommunicationModel, core::LinkSpec>;

/// The process-wide registries. The built-in models of core/ (see
/// registry.cc) self-register before main() runs; libraries extending the
/// menu use the DMLSCALE_REGISTER_* macros below.
ComputeModelRegistry& ComputeModels();
CommModelRegistry& CommModels();

namespace internal {
/// Aborts with `status` when registration fails — a duplicate name at
/// static-initialization time is a build-layout bug, not a runtime
/// condition anyone can handle.
bool RegisterOrDie(const Status& status);
}  // namespace internal

/// Self-registration of a computation-model factory. The optional trailing
/// argument is the documented example ModelParams (see Register):
///
///   DMLSCALE_REGISTER_COMPUTE_MODEL(
///       "my-compute", "total_flops",
///       [](const api::ModelParams& p, const core::NodeSpec& node)
///           -> Result<std::unique_ptr<core::ComputationModel>> { ... },
///       api::ModelParams{{"total_flops", 1e9}});
#define DMLSCALE_REGISTER_COMPUTE_MODEL(name, params_help, factory, ...)     \
  static const bool DMLSCALE_STATUS_CONCAT_(dmlscale_compute_registered_,    \
                                            __COUNTER__) [[maybe_unused]] =  \
      ::dmlscale::api::internal::RegisterOrDie(                              \
          ::dmlscale::api::ComputeModels().Register(                         \
              name, params_help, factory __VA_OPT__(, ) __VA_ARGS__))

/// Self-registration of a communication-model factory (see above).
#define DMLSCALE_REGISTER_COMM_MODEL(name, params_help, factory, ...)        \
  static const bool DMLSCALE_STATUS_CONCAT_(dmlscale_comm_registered_,       \
                                            __COUNTER__) [[maybe_unused]] =  \
      ::dmlscale::api::internal::RegisterOrDie(                              \
          ::dmlscale::api::CommModels().Register(                            \
              name, params_help, factory __VA_OPT__(, ) __VA_ARGS__))

}  // namespace dmlscale::api

#endif  // DMLSCALE_API_REGISTRY_H_
