#include "nn/data.h"

#include <gtest/gtest.h>

namespace dmlscale::nn {
namespace {

TEST(SyntheticClassificationTest, ShapesAndOneHot) {
  Pcg32 rng(1);
  auto data = SyntheticClassification(100, 5, 3, 0.1, &rng);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->features.dim(0), 100);
  EXPECT_EQ(data->features.dim(1), 5);
  EXPECT_EQ(data->targets.dim(0), 100);
  EXPECT_EQ(data->targets.dim(1), 3);
  for (int64_t e = 0; e < 100; ++e) {
    double sum = 0.0;
    for (int64_t c = 0; c < 3; ++c) sum += data->targets.At2(e, c);
    EXPECT_DOUBLE_EQ(sum, 1.0);
  }
}

TEST(SyntheticClassificationTest, AllClassesRepresented) {
  Pcg32 rng(2);
  auto data = SyntheticClassification(300, 4, 4, 0.1, &rng);
  ASSERT_TRUE(data.ok());
  std::vector<int> counts(4, 0);
  for (int64_t e = 0; e < 300; ++e) {
    for (int64_t c = 0; c < 4; ++c) {
      if (data->targets.At2(e, c) == 1.0) ++counts[static_cast<size_t>(c)];
    }
  }
  for (int c : counts) EXPECT_GT(c, 30);
}

TEST(SyntheticClassificationTest, RejectsBadParams) {
  Pcg32 rng(3);
  EXPECT_FALSE(SyntheticClassification(0, 5, 3, 0.1, &rng).ok());
  EXPECT_FALSE(SyntheticClassification(10, 5, 1, 0.1, &rng).ok());
  EXPECT_FALSE(SyntheticClassification(10, 5, 3, 0.1, nullptr).ok());
}

TEST(SyntheticImagesTest, ShapeAndBlobPlacement) {
  Pcg32 rng(5);
  auto data = SyntheticImages(50, 8, 2, 0.0, &rng);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->features.rank(), 4u);
  EXPECT_EQ(data->features.dim(1), 1);
  EXPECT_EQ(data->features.dim(2), 8);
  // Noise-free: the blob pixels are exactly 1.0 and distinct per class.
  bool found_bright = false;
  for (int64_t i = 0; i < data->features.size(); ++i) {
    if (data->features[i] == 1.0) found_bright = true;
  }
  EXPECT_TRUE(found_bright);
}

TEST(DatasetSliceTest, SliceCopiesRows) {
  Pcg32 rng(6);
  auto data = SyntheticClassification(10, 3, 2, 0.1, &rng);
  ASSERT_TRUE(data.ok());
  auto slice = data->Slice(2, 5);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->num_examples(), 3);
  for (int64_t e = 0; e < 3; ++e) {
    for (int64_t d = 0; d < 3; ++d) {
      EXPECT_DOUBLE_EQ(slice->features.At2(e, d),
                       data->features.At2(e + 2, d));
    }
  }
}

TEST(DatasetSliceTest, Slice4dFeatures) {
  Pcg32 rng(7);
  auto data = SyntheticImages(6, 8, 2, 0.1, &rng);
  ASSERT_TRUE(data.ok());
  auto slice = data->Slice(4, 6);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->features.dim(0), 2);
  EXPECT_EQ(slice->features.dim(2), 8);
  EXPECT_DOUBLE_EQ(slice->features[slice->features.Index4(0, 0, 3, 3)],
                   data->features[data->features.Index4(4, 0, 3, 3)]);
}

TEST(DatasetSliceTest, RejectsBadRanges) {
  Pcg32 rng(8);
  auto data = SyntheticClassification(10, 3, 2, 0.1, &rng);
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(data->Slice(-1, 5).ok());
  EXPECT_FALSE(data->Slice(5, 5).ok());
  EXPECT_FALSE(data->Slice(5, 11).ok());
}

}  // namespace
}  // namespace dmlscale::nn
