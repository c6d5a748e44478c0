#ifndef SAGDFN_NN_MLP_H_
#define SAGDFN_NN_MLP_H_

#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace sagdfn::nn {

/// Multi-layer perceptron: Linear -> act -> ... -> Linear. The activation
/// is applied between layers but not after the last one.
class Mlp : public Module {
 public:
  /// `dims` lists layer widths, e.g. {in, hidden, out} builds two Linear
  /// layers. Needs at least two entries.
  Mlp(const std::vector<int64_t>& dims, Activation act, utils::Rng& rng);

  autograd::Variable Forward(const autograd::Variable& x) const;

 private:
  Activation act_;
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace sagdfn::nn

#endif  // SAGDFN_NN_MLP_H_
