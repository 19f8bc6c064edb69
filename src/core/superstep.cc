#include "core/superstep.h"

#include "common/check.h"

namespace dmlscale::core {

Superstep::Superstep(std::unique_ptr<ComputationModel> compute,
                     std::unique_ptr<CommunicationModel> comm,
                     std::string label)
    : compute_(std::move(compute)),
      comm_(std::move(comm)),
      label_(std::move(label)) {
  DMLSCALE_CHECK(compute_ != nullptr);
  DMLSCALE_CHECK(comm_ != nullptr);
}

double Superstep::Seconds(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  // Computation and communication do not overlap (Section III).
  return compute_->Seconds(n) + comm_->Seconds(n);
}

FunctionModel::FunctionModel(std::function<double(int)> fn, std::string label)
    : fn_(std::move(fn)), label_(std::move(label)) {
  DMLSCALE_CHECK(fn_ != nullptr);
}

double FunctionModel::Seconds(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  return fn_(n);
}

}  // namespace dmlscale::core
