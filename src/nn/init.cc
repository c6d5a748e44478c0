#include "nn/init.h"

#include <cmath>

#include "utils/check.h"

namespace sagdfn::nn {
namespace {

void FanInOut(const tensor::Shape& shape, int64_t* fan_in,
              int64_t* fan_out) {
  SAGDFN_CHECK_GE(shape.ndim(), 1);
  if (shape.ndim() == 1) {
    *fan_in = shape.dims()[0];
    *fan_out = shape.dims()[0];
    return;
  }
  *fan_in = shape.dims()[shape.ndim() - 2];
  *fan_out = shape.dims()[shape.ndim() - 1];
}

}  // namespace

tensor::Tensor XavierUniform(tensor::Shape shape, utils::Rng& rng,
                             float gain) {
  int64_t fan_in = 0;
  int64_t fan_out = 0;
  FanInOut(shape, &fan_in, &fan_out);
  const float a =
      gain * std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return tensor::Tensor::Uniform(std::move(shape), rng, -a, a);
}

tensor::Tensor LinearDefault(tensor::Shape shape, utils::Rng& rng,
                             int64_t fan_in) {
  SAGDFN_CHECK_GT(fan_in, 0);
  const float a = 1.0f / std::sqrt(static_cast<float>(fan_in));
  return tensor::Tensor::Uniform(std::move(shape), rng, -a, a);
}

}  // namespace sagdfn::nn
