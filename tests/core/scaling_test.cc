#include "core/scaling.h"

#include <gtest/gtest.h>

namespace dmlscale::core {
namespace {

TEST(WeakScalingStudyTest, ScaledSpeedupPerfectForFreeComm) {
  WeakScalingStudy study([](int n, double d) { return d / n; });
  auto curve = study.ScaledSpeedup(8);
  ASSERT_TRUE(curve.ok());
  // t(n, n) = 1 for all n, so scaled speedup = n (Gustafson's ideal).
  for (size_t i = 0; i < curve->nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve->speedup[i],
                     static_cast<double>(curve->nodes[i]));
  }
}

TEST(WeakScalingStudyTest, RejectsNonPositiveTimes) {
  WeakScalingStudy study([](int, double) { return 0.0; });
  EXPECT_FALSE(study.ScaledSpeedup(4).ok());
}

}  // namespace
}  // namespace dmlscale::core
