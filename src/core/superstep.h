#ifndef DMLSCALE_CORE_SUPERSTEP_H_
#define DMLSCALE_CORE_SUPERSTEP_H_

#include <functional>
#include <memory>
#include <string>

#include "core/communication_model.h"
#include "core/computation_model.h"

namespace dmlscale::core {

/// Time model of a distributed algorithm: `t(n)`, the duration of one unit
/// of progress (a BSP superstep, a gradient-descent iteration, one training
/// instance, ...) on `n` nodes (Section III).
class AlgorithmModel {
 public:
  virtual ~AlgorithmModel() = default;

  /// Duration in seconds on `n` >= 1 nodes.
  virtual double Seconds(int n) const = 0;

  virtual std::string name() const = 0;
};

/// One BSP superstep: concurrent computation followed by communication with
/// a synchronization barrier, `t = tcp + tcm` (Section III). The barrier is
/// implicitly included in the computation term, as in the paper.
class Superstep final : public AlgorithmModel {
 public:
  Superstep(std::unique_ptr<ComputationModel> compute,
            std::unique_ptr<CommunicationModel> comm,
            std::string label = "superstep");

  double Seconds(int n) const override;
  std::string name() const override { return label_; }

  /// The computation term alone, for diagnostics / Fig. 1 style plots.
  double ComputeSeconds(int n) const { return compute_->Seconds(n); }
  /// The communication term alone.
  double CommSeconds(int n) const { return comm_->Seconds(n); }
  /// The communication model itself (network decoration, traffic patterns).
  const CommunicationModel& comm() const { return *comm_; }

 private:
  std::unique_ptr<ComputationModel> compute_;
  std::unique_ptr<CommunicationModel> comm_;
  std::string label_;
};

/// Adapts an arbitrary function `t(n)`; handy for closed-form paper
/// formulas and for tests.
class FunctionModel final : public AlgorithmModel {
 public:
  FunctionModel(std::function<double(int)> fn, std::string label = "function");
  double Seconds(int n) const override;
  std::string name() const override { return label_; }

 private:
  std::function<double(int)> fn_;
  std::string label_;
};

}  // namespace dmlscale::core

#endif  // DMLSCALE_CORE_SUPERSTEP_H_
