#include "core/queueing.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/status.h"

namespace dmlscale::core {
namespace {

// Independent Erlang-C reference: the textbook sum
//   C(k, a) = (a^k/k!) / (a^k/k! + (1 - rho) * sum_{n<k} a^n/n!)
// accumulated term-by-term. The production code uses the Erlang-B
// recurrence instead; agreement across k in {1..64} is the golden table.
double ErlangCDirect(int k, double a) {
  double term = 1.0;  // a^n / n! at n = 0
  double sum = 0.0;
  for (int n = 0; n < k; ++n) {
    sum += term;
    term *= a / static_cast<double>(n + 1);
  }
  double rho = a / static_cast<double>(k);
  return term / (term + (1.0 - rho) * sum);
}

TEST(ErlangTest, GoldenTableAgainstDirectSumK1To64) {
  for (int k = 1; k <= 64; ++k) {
    // Three utilizations per k: light, moderate, heavy.
    for (double rho : {0.3, 0.7, 0.95}) {
      double a = rho * static_cast<double>(k);
      Result<double> c = ErlangC(k, a);
      ASSERT_TRUE(c.ok()) << "k=" << k << " rho=" << rho;
      double reference = ErlangCDirect(k, a);
      EXPECT_NEAR(c.value(), reference, 1e-12 + 1e-12 * reference)
          << "k=" << k << " rho=" << rho;
      EXPECT_GT(c.value(), 0.0);
      EXPECT_LT(c.value(), 1.0);
    }
  }
}

// C(1, a) = a is an exact closed form and the implementation returns the
// argument verbatim — pinned with EXPECT_EQ on doubles, no tolerance.
TEST(ErlangTest, SingleServerWaitProbabilityIsExactlyOfferedLoad) {
  EXPECT_EQ(ErlangC(1, 0.25).value(), 0.25);
  EXPECT_EQ(ErlangC(1, 0.5).value(), 0.5);
  EXPECT_EQ(ErlangC(1, 0.875).value(), 0.875);
  EXPECT_EQ(ErlangC(1, 0.0).value(), 0.0);
}

TEST(ErlangTest, PinnedClosedFormValues) {
  // B(1, 1) = 1/2 exactly via the recurrence's single step.
  EXPECT_EQ(ErlangB(1, 1.0), 0.5);
  // B(2, 1) = 1/5, C(2, 1) = 1/3 (hand-computable).
  EXPECT_NEAR(ErlangB(2, 1.0), 0.2, 1e-15);
  EXPECT_NEAR(ErlangC(2, 1.0).value(), 1.0 / 3.0, 1e-15);
  // Erlang-B needs no stability: a > k is legal for the loss system.
  EXPECT_NEAR(ErlangB(2, 4.0), 8.0 / 13.0, 1e-15);
}

TEST(ErlangTest, WaitProbabilityFallsWithMoreServersAtFixedLoad) {
  double previous = 1.0;
  for (int k = 1; k <= 64; ++k) {
    double c = ErlangC(k, 0.9).value();
    EXPECT_LT(c, previous) << "k=" << k;
    previous = c;
  }
}

TEST(ErlangTest, CannotKeepUpIsInvalidArgument) {
  Result<double> saturated = ErlangC(4, 4.0);
  ASSERT_FALSE(saturated.ok());
  EXPECT_EQ(saturated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(saturated.status().message().find("cannot keep up"),
            std::string::npos);
  EXPECT_FALSE(ErlangC(4, 5.5).ok());
  EXPECT_FALSE(ErlangC(1, 1.0).ok());
}

TEST(MmkTest, Mm2AtHalfUtilizationMatchesHandComputation) {
  // lambda = 1, mu = 1, k = 2: a = 1, rho = 0.5, C = 1/3,
  // Wq = C / (2 mu - lambda) = 1/3, W = 4/3, Lq = 1/3.
  Result<MmkMetrics> metrics = AnalyzeMmk(2, 1.0, 1.0);
  ASSERT_TRUE(metrics.ok());
  const MmkMetrics& m = metrics.value();
  EXPECT_EQ(m.servers, 2);
  EXPECT_EQ(m.utilization, 0.5);
  EXPECT_NEAR(m.wait_probability, 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(m.mean_wait_s, 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(m.mean_sojourn_s, 4.0 / 3.0, 1e-15);
  EXPECT_NEAR(m.mean_queue_length, 1.0 / 3.0, 1e-15);
}

TEST(MmkTest, SaturatedPoolReportsCannotKeepUp) {
  Result<MmkMetrics> saturated = AnalyzeMmk(2, 3.0, 1.0);
  ASSERT_FALSE(saturated.ok());
  EXPECT_EQ(saturated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(AnalyzeMmk(0, 1.0, 1.0).ok());
  EXPECT_FALSE(AnalyzeMmk(2, 0.0, 1.0).ok());
  EXPECT_FALSE(AnalyzeMmk(2, 1.0, -1.0).ok());
}

TEST(MmkTest, WaitQuantileMatchesMm1ClosedForm) {
  // M/M/1 at rho = 0.5 (lambda = 0.5, mu = 1): P(W > t) = rho e^{-(mu -
  // lambda) t}, so the p-quantile for p > 1 - rho is ln(rho/(1-p))/(mu -
  // lambda).
  MmkMetrics m = AnalyzeMmk(1, 0.5, 1.0).value();
  EXPECT_EQ(m.WaitQuantile(0.0), 0.0);
  EXPECT_EQ(m.WaitQuantile(0.5), 0.0);  // p <= 1 - C: no wait
  EXPECT_NEAR(m.WaitQuantile(0.9), std::log(0.5 / 0.1) / 0.5, 1e-12);
  EXPECT_NEAR(m.WaitQuantile(0.99), std::log(0.5 / 0.01) / 0.5, 1e-12);
}

TEST(MmkTest, SojournTailCollapsesToMm1Exponential) {
  // For k = 1 the sojourn is Exp(mu - lambda) exactly.
  MmkMetrics m = AnalyzeMmk(1, 0.5, 1.0).value();
  EXPECT_EQ(m.SojournTail(0.0), 1.0);
  for (double t : {0.1, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(m.SojournTail(t), std::exp(-0.5 * t), 1e-12) << "t=" << t;
  }
  EXPECT_NEAR(m.SojournQuantile(0.99), -std::log(0.01) / 0.5, 1e-9);
  EXPECT_NEAR(m.SojournQuantile(0.5), -std::log(0.5) / 0.5, 1e-9);
}

TEST(MmkTest, SojournQuantileInvertsTail) {
  MmkMetrics m = AnalyzeMmk(8, 6.0, 1.0).value();
  for (double p : {0.5, 0.9, 0.95, 0.99}) {
    double t = m.SojournQuantile(p);
    EXPECT_NEAR(m.SojournTail(t), 1.0 - p, 1e-9) << "p=" << p;
  }
  // More load, longer tail.
  MmkMetrics hot = AnalyzeMmk(8, 7.6, 1.0).value();
  EXPECT_GT(hot.SojournQuantile(0.99), m.SojournQuantile(0.99));
}

TEST(BatchServiceModelTest, AffineLatencyAndThroughput) {
  BatchServiceModel model{0.004, 0.001};
  ASSERT_TRUE(model.Validate().ok());
  EXPECT_DOUBLE_EQ(model.Latency(1), 0.005);
  EXPECT_DOUBLE_EQ(model.Latency(16), 0.02);
  EXPECT_DOUBLE_EQ(model.Throughput(1), 1.0 / 0.005);
  EXPECT_DOUBLE_EQ(model.Throughput(16), 16.0 / 0.02);
  // Amortizing the fixed cost: throughput grows with batch size.
  EXPECT_GT(model.Throughput(16), model.Throughput(1));
}

TEST(BatchServiceModelTest, LargestBatchWithinBudget) {
  BatchServiceModel model{0.004, 0.001};
  // budget 0.02: floor((0.02 - 0.004)/0.001) = 16.
  EXPECT_EQ(model.LargestBatchWithin(0.02, 64).value(), 16);
  EXPECT_EQ(model.LargestBatchWithin(0.02, 8).value(), 8);  // clamped
  EXPECT_EQ(model.LargestBatchWithin(0.0055, 64).value(), 1);
  Result<int> infeasible = model.LargestBatchWithin(0.004, 64);
  ASSERT_FALSE(infeasible.ok());
  EXPECT_EQ(infeasible.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(model.LargestBatchWithin(-1.0, 64).ok());
}

TEST(BatchServiceModelTest, ValidateRejectsBadCoefficients) {
  EXPECT_FALSE((BatchServiceModel{-0.1, 0.001}).Validate().ok());
  EXPECT_FALSE((BatchServiceModel{0.1, 0.0}).Validate().ok());
  EXPECT_FALSE((BatchServiceModel{0.1, -0.001}).Validate().ok());
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    Status fixed = BatchServiceModel{bad, 0.001}.Validate();
    EXPECT_EQ(fixed.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(fixed.message().find("fixed_s"), std::string::npos) << bad;
    Status per_item = BatchServiceModel{0.1, bad}.Validate();
    EXPECT_EQ(per_item.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(per_item.message().find("per_item_s"), std::string::npos)
        << bad;
  }
}

}  // namespace
}  // namespace dmlscale::core
