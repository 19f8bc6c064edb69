#include "core/calibration.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace dmlscale::core {
namespace {

std::function<double(int)> ComputeTerm() {
  return [](int n) { return 10.0 / n; };
}
std::function<double(int)> CommTerm() {
  return [](int n) { return n > 1 ? 0.5 * std::log2(static_cast<double>(n)) : 0.0; };
}

std::vector<TimingSample> SamplesFrom(double a, double b,
                                      const std::vector<int>& nodes) {
  std::vector<TimingSample> samples;
  for (int n : nodes) {
    samples.push_back({n, a * ComputeTerm()(n) + b * CommTerm()(n)});
  }
  return samples;
}

TEST(FitLinearModelTest, RecoversExactCoefficients) {
  auto samples = SamplesFrom(1.25, 0.8, {1, 2, 4, 8, 16});
  auto fit = FitLinearModel({ComputeTerm(), CommTerm()}, samples);
  ASSERT_TRUE(fit.ok());
  ASSERT_EQ(fit->coefficients.size(), 2u);
  EXPECT_NEAR(fit->coefficients[0], 1.25, 1e-9);
  EXPECT_NEAR(fit->coefficients[1], 0.8, 1e-9);
  EXPECT_NEAR(fit->rmse, 0.0, 1e-9);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
}

TEST(FitLinearModelTest, NoisySamplesStillClose) {
  auto samples = SamplesFrom(1.0, 1.0, {1, 2, 3, 4, 6, 8, 12, 16, 24, 32});
  // Deterministic +-2% perturbation.
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i].seconds *= (i % 2 == 0) ? 1.02 : 0.98;
  }
  auto fit = FitLinearModel({ComputeTerm(), CommTerm()}, samples);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->coefficients[0], 1.0, 0.05);
  EXPECT_NEAR(fit->coefficients[1], 1.0, 0.10);
  EXPECT_GT(fit->r_squared, 0.99);
}

TEST(FitLinearModelTest, RejectsBadInput) {
  auto samples = SamplesFrom(1.0, 1.0, {1, 2});
  EXPECT_FALSE(FitLinearModel({}, samples).ok());
  EXPECT_FALSE(
      FitLinearModel({ComputeTerm(), CommTerm()}, {{1, 1.0}}).ok());
  std::vector<TimingSample> bad{{0, 1.0}, {2, 1.0}};
  EXPECT_FALSE(FitLinearModel({ComputeTerm()}, bad).ok());
  std::vector<TimingSample> nonpos{{1, 0.0}, {2, 1.0}};
  EXPECT_FALSE(FitLinearModel({ComputeTerm()}, nonpos).ok());
}

TEST(FitLinearModelTest, RejectsNonFiniteSampleTimes) {
  // NaN slips through a `<= 0` test (all NaN comparisons are false) and
  // would poison the normal matrix; it must fail loudly instead.
  std::vector<TimingSample> with_nan{
      {1, 10.0}, {2, std::nan("")}, {4, 2.5}};
  auto nan_fit = FitLinearModel({ComputeTerm(), CommTerm()}, with_nan);
  ASSERT_FALSE(nan_fit.ok());
  EXPECT_EQ(nan_fit.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(nan_fit.status().message().find("non-finite"), std::string::npos);

  std::vector<TimingSample> with_inf{
      {1, 10.0}, {2, std::numeric_limits<double>::infinity()}, {4, 2.5}};
  auto inf_fit = FitLinearModel({ComputeTerm(), CommTerm()}, with_inf);
  ASSERT_FALSE(inf_fit.ok());
  EXPECT_EQ(inf_fit.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FitLinearModelTest, RejectsDuplicateSingularNodeSchedules) {
  // Five samples at ONE node count carry a single equation's worth of
  // information: reject with a clear message instead of a garbage fit
  // through a (near-)singular normal matrix.
  std::vector<TimingSample> duplicated{
      {4, 3.0}, {4, 3.1}, {4, 2.9}, {4, 3.0}, {4, 3.05}};
  auto fit = FitLinearModel({ComputeTerm(), CommTerm()}, duplicated);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(fit.status().message().find("distinct"), std::string::npos);

  // One distinct count is fine for a one-term basis.
  auto one_term = FitLinearModel({ComputeTerm()}, duplicated);
  EXPECT_TRUE(one_term.ok());
}

TEST(FitLinearModelTest, RejectsNonFiniteBasisValues) {
  auto bad_basis = [](int n) { return n > 2 ? std::nan("") : 1.0 / n; };
  auto samples = SamplesFrom(1.0, 1.0, {1, 2, 4});
  auto fit = FitLinearModel({bad_basis, CommTerm()}, samples);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FitLinearModelTest, ReportsNegativeRSquaredForHopelessBasis) {
  // Times GROW with n but the only basis term shrinks as 1/n: the best
  // least-squares fit is worse than predicting the mean, so R^2 < 0 — a
  // "do not trust this model" signal, not an error.
  std::vector<TimingSample> growing{{1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0}};
  auto fit = FitLinearModel({[](int n) { return 1.0 / n; }}, growing);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(fit->r_squared, 0.0);
}

TEST(FitLinearModelTest, DetectsCollinearBasis) {
  auto same = [](int n) { return 1.0 / n; };
  auto samples = SamplesFrom(1.0, 0.0, {1, 2, 4, 8});
  auto fit = FitLinearModel({same, same}, samples);
  EXPECT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dmlscale::core
