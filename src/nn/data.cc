#include "nn/data.h"

#include <algorithm>
#include <vector>

namespace dmlscale::nn {

Result<Dataset> Dataset::Slice(int64_t begin, int64_t end) const {
  Dataset out{Tensor({0}), Tensor({0})};
  DMLSCALE_RETURN_NOT_OK(CopySliceInto(begin, end, &out));
  return out;
}

Status Dataset::CopySliceInto(int64_t begin, int64_t end,
                              Dataset* out) const {
  if (begin < 0 || end > num_examples() || begin >= end) {
    return Status::OutOfRange("bad slice range");
  }
  int64_t per_example_f = features.size() / num_examples();
  int64_t per_example_t = targets.size() / num_examples();

  std::vector<int64_t> fshape = features.shape();
  fshape[0] = end - begin;
  std::vector<int64_t> tshape = targets.shape();
  tshape[0] = end - begin;

  out->features.ResizeTo(fshape);
  out->targets.ResizeTo(tshape);
  std::copy(features.data() + begin * per_example_f,
            features.data() + end * per_example_f, out->features.data());
  std::copy(targets.data() + begin * per_example_t,
            targets.data() + end * per_example_t, out->targets.data());
  return Status::OK();
}

Result<Dataset> SyntheticClassification(int64_t examples, int64_t dims,
                                        int64_t classes, double noise,
                                        Pcg32* rng) {
  if (examples < 1 || dims < 1 || classes < 2) {
    return Status::InvalidArgument("bad dataset dimensions");
  }
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  // Random unit-ish centroid per class.
  Tensor centroids({classes, dims});
  centroids.FillGaussian(1.0, rng);

  Dataset data{Tensor({examples, dims}), Tensor({examples, classes})};
  for (int64_t e = 0; e < examples; ++e) {
    int64_t label = rng->NextBounded(static_cast<uint32_t>(classes));
    for (int64_t d = 0; d < dims; ++d) {
      data.features.At2(e, d) =
          centroids.At2(label, d) + rng->NextGaussian(0.0, noise);
    }
    data.targets.At2(e, label) = 1.0;
  }
  return data;
}

Result<Dataset> SyntheticImages(int64_t examples, int64_t side,
                                int64_t classes, double noise, Pcg32* rng) {
  if (examples < 1 || side < 4 || classes < 2) {
    return Status::InvalidArgument("bad dataset dimensions");
  }
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  Dataset data{Tensor({examples, 1, side, side}), Tensor({examples, classes})};
  for (int64_t e = 0; e < examples; ++e) {
    int64_t label = rng->NextBounded(static_cast<uint32_t>(classes));
    // Class-dependent bright blob position along the diagonal.
    int64_t pos = 1 + (label * (side - 3)) / std::max<int64_t>(classes - 1, 1);
    for (int64_t r = 0; r < side; ++r) {
      for (int64_t c = 0; c < side; ++c) {
        double v = rng->NextGaussian(0.0, noise);
        if (std::llabs(r - pos) <= 1 && std::llabs(c - pos) <= 1) v += 1.0;
        data.features[data.features.Index4(e, 0, r, c)] = v;
      }
    }
    data.targets.At2(e, label) = 1.0;
  }
  return data;
}

}  // namespace dmlscale::nn
