#ifndef SAGDFN_OPTIM_OPTIMIZER_H_
#define SAGDFN_OPTIM_OPTIMIZER_H_

#include <vector>

#include "autograd/variable.h"

namespace sagdfn::optim {

/// Adam (Kingma & Ba, 2015) with bias correction over a fixed parameter
/// set; the paper's optimizer.
class Adam {
 public:
  Adam(std::vector<autograd::Variable> params, double lr,
       double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8,
       double weight_decay = 0.0);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the gradients currently stored on the
  /// parameters.
  void Step();

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }

  const std::vector<autograd::Variable>& params() const { return params_; }

  int64_t step_count() const { return step_count_; }

  /// Checkpoint access to the optimizer state: first and second moment
  /// slots, index-aligned with params(). The returned Tensor handles
  /// share storage with the live slots, so writing through them (e.g.
  /// Trainer::Resume copying a checkpoint in) updates the optimizer.
  const std::vector<tensor::Tensor>& moments_m() const { return m_; }
  const std::vector<tensor::Tensor>& moments_v() const { return v_; }

  /// Restores the bias-correction step counter on resume. Requires
  /// step_count >= 0.
  void set_step_count(int64_t step_count);

 private:
  std::vector<autograd::Variable> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  int64_t step_count_ = 0;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
};

/// Rescales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm. A zero norm needs no rescaling and a
/// non-finite norm (NaN/Inf gradients) leaves the gradients untouched —
/// scaling by max_norm/Inf or by NaN would zero or poison every
/// parameter — so callers must check std::isfinite on the returned norm
/// before stepping the optimizer.
double ClipGradNorm(const std::vector<autograd::Variable>& params,
                    double max_norm);

}  // namespace sagdfn::optim

#endif  // SAGDFN_OPTIM_OPTIMIZER_H_
