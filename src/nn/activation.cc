#include "nn/activation.h"

#include "utils/check.h"

namespace sagdfn::nn {

autograd::Variable Apply(Activation act, const autograd::Variable& x) {
  switch (act) {
    case Activation::kIdentity:
      return x;
    case Activation::kRelu:
      return autograd::Relu(x);
    case Activation::kTanh:
      return autograd::Tanh(x);
    case Activation::kSigmoid:
      return autograd::Sigmoid(x);
  }
  SAGDFN_CHECK(false) << "unknown activation";
  return x;
}

}  // namespace sagdfn::nn
