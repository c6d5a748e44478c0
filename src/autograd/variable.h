#ifndef SAGDFN_AUTOGRAD_VARIABLE_H_
#define SAGDFN_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace sagdfn::autograd {

namespace internal {

/// One node of the autograd tape. Users interact with Variable; Node is an
/// implementation detail shared between ops and the backward pass.
struct Node {
  tensor::Tensor value;
  tensor::Tensor grad;
  bool requires_grad = false;
  bool grad_defined = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Propagates this node's grad into its parents. Null for leaves.
  std::function<void(const tensor::Tensor&)> backward_fn;
  const char* op_name = "leaf";

  /// Adds `g` into this node's gradient buffer (allocating on first use).
  void AccumulateGrad(const tensor::Tensor& g);
  /// As above, but on first use takes `g`'s storage over instead of
  /// cloning it when `g` is its only handle (Tensor::OwnsStorageAlone).
  /// An aliased `g` (a copy held elsewhere, a Reshape view of a live
  /// tensor, an ownerless FromExternal tensor) is still cloned, so a
  /// later accumulation into this gradient can never write into another
  /// node's tensor.
  void AccumulateGrad(tensor::Tensor&& g);

 private:
  void CheckGradShape(const tensor::Tensor& g) const;
};

}  // namespace internal

/// Differentiable tensor handle.
///
/// A Variable wraps a Tensor plus optional gradient bookkeeping. Ops on
/// Variables (see autograd/ops.h) record a tape when gradients are enabled
/// and any input requires them; Backward() on a scalar result then fills
/// grad() on every contributing leaf.
class Variable {
 public:
  /// Constructs an empty variable (size-0 tensor, no grad).
  Variable();

  /// Wraps `value`. Set `requires_grad` for trainable leaves.
  explicit Variable(tensor::Tensor value, bool requires_grad = false);

  /// The wrapped tensor (forward value).
  const tensor::Tensor& value() const { return node_->value; }

  /// Mutable access for optimizers / in-place init. Never call on a
  /// non-leaf mid-graph: the tape holds no copy.
  tensor::Tensor& mutable_value() { return node_->value; }

  /// Accumulated gradient; only meaningful after Backward() on a scalar
  /// that depends on this variable. Zero tensor if no gradient flowed.
  tensor::Tensor grad() const;

  bool requires_grad() const { return node_->requires_grad; }

  /// Marks a leaf as trainable (or not). Must not be called on op outputs.
  void set_requires_grad(bool requires_grad);

  /// Clears the stored gradient.
  void ZeroGrad();

  /// Runs reverse-mode differentiation from this (scalar) variable,
  /// accumulating into the grad() of every reachable requires_grad leaf.
  void Backward();

  const tensor::Shape& shape() const { return node_->value.shape(); }
  int64_t size() const { return node_->value.size(); }
  int64_t dim(int64_t d) const { return node_->value.dim(d); }

  /// Internal: used by ops to stitch the tape together.
  const std::shared_ptr<internal::Node>& node() const { return node_; }

  /// Internal: wraps an op-produced node.
  static Variable FromNode(std::shared_ptr<internal::Node> node);

 private:
  std::shared_ptr<internal::Node> node_;
};

/// True when ops should record the tape (default). Thread-local.
bool GradEnabled();

/// RAII guard that disables tape recording in its scope (inference mode).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// RAII guard that sets tape recording to an explicit value. Needed when
/// dispatching forward work onto pool threads: GradEnabled() is
/// thread-local, so workers must adopt the calling thread's mode instead
/// of their own default.
class GradModeGuard {
 public:
  explicit GradModeGuard(bool enabled);
  ~GradModeGuard();
  GradModeGuard(const GradModeGuard&) = delete;
  GradModeGuard& operator=(const GradModeGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace sagdfn::autograd

#endif  // SAGDFN_AUTOGRAD_VARIABLE_H_
