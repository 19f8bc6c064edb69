#include "core/computation_model.h"

#include "common/check.h"

namespace dmlscale::core {

PerfectlyParallelCompute::PerfectlyParallelCompute(double total_flops,
                                                   NodeSpec node)
    : total_flops_(total_flops), node_(node) {
  DMLSCALE_CHECK_GE(total_flops, 0.0);
  DMLSCALE_CHECK(node.Validate().ok());
}

double PerfectlyParallelCompute::Seconds(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  return total_flops_ / (node_.EffectiveFlops() * static_cast<double>(n));
}

BottleneckCompute::BottleneckCompute(std::function<double(int)> max_share_flops,
                                     NodeSpec node, std::string label)
    : max_share_flops_(std::move(max_share_flops)),
      node_(node),
      label_(std::move(label)) {
  DMLSCALE_CHECK(node.Validate().ok());
  DMLSCALE_CHECK(max_share_flops_ != nullptr);
}

double BottleneckCompute::Seconds(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  return max_share_flops_(n) / node_.EffectiveFlops();
}

AmdahlCompute::AmdahlCompute(double total_flops, double serial_fraction,
                             NodeSpec node)
    : total_flops_(total_flops),
      serial_fraction_(serial_fraction),
      node_(node) {
  DMLSCALE_CHECK_GE(total_flops, 0.0);
  DMLSCALE_CHECK(serial_fraction >= 0.0 && serial_fraction <= 1.0);
  DMLSCALE_CHECK(node.Validate().ok());
}

double AmdahlCompute::Seconds(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  double parallel = (1.0 - serial_fraction_) / static_cast<double>(n);
  return (serial_fraction_ + parallel) * total_flops_ / node_.EffectiveFlops();
}

}  // namespace dmlscale::core
