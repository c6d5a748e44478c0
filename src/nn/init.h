#ifndef SAGDFN_NN_INIT_H_
#define SAGDFN_NN_INIT_H_

#include "tensor/tensor.h"
#include "utils/rng.h"

namespace sagdfn::nn {

/// Xavier/Glorot uniform init: U(-a, a) with a = sqrt(6 / (fan_in +
/// fan_out)). For 2-D shapes fan_in/fan_out are the two dims; for higher
/// ranks the trailing two dims are used.
tensor::Tensor XavierUniform(tensor::Shape shape, utils::Rng& rng,
                             float gain = 1.0f);

/// PyTorch nn.Linear-style default: U(-1/sqrt(fan_in), 1/sqrt(fan_in)).
tensor::Tensor LinearDefault(tensor::Shape shape, utils::Rng& rng,
                             int64_t fan_in);

}  // namespace sagdfn::nn

#endif  // SAGDFN_NN_INIT_H_
