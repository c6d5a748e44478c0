#ifndef SAGDFN_NN_ACTIVATION_H_
#define SAGDFN_NN_ACTIVATION_H_

#include "autograd/ops.h"

namespace sagdfn::nn {

/// Activation functions selectable by configuration.
enum class Activation {
  kIdentity,
  kRelu,
  kTanh,
  kSigmoid,
};

/// Applies the selected activation.
autograd::Variable Apply(Activation act, const autograd::Variable& x);

}  // namespace sagdfn::nn

#endif  // SAGDFN_NN_ACTIVATION_H_
