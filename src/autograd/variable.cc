#include "autograd/variable.h"

#include <unordered_set>

#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/check.h"

namespace sagdfn::autograd {

namespace internal {

void Node::CheckGradShape(const tensor::Tensor& g) const {
  SAGDFN_CHECK(g.shape() == value.shape())
      << "gradient shape " << g.shape().ToString() << " vs value "
      << value.shape().ToString() << " in op " << op_name;
}

void Node::AccumulateGrad(const tensor::Tensor& g) {
  CheckGradShape(g);
  if (!grad_defined) {
    grad = g.Clone();
    grad_defined = true;
    return;
  }
  tensor::simd::K().acc_add(grad.data(), g.data(), grad.size());
}

void Node::AccumulateGrad(tensor::Tensor&& g) {
  if (grad_defined || !g.OwnsStorageAlone()) {
    AccumulateGrad(static_cast<const tensor::Tensor&>(g));
    return;
  }
  CheckGradShape(g);
  grad = std::move(g);
  grad_defined = true;
}

}  // namespace internal

namespace {

thread_local bool t_grad_enabled = true;

}  // namespace

Variable::Variable() : Variable(tensor::Tensor(), false) {}

Variable::Variable(tensor::Tensor value, bool requires_grad)
    : node_(std::make_shared<internal::Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

tensor::Tensor Variable::grad() const {
  if (!node_->grad_defined) {
    return tensor::Tensor::Zeros(node_->value.shape());
  }
  return node_->grad;
}

void Variable::set_requires_grad(bool requires_grad) {
  SAGDFN_CHECK(node_->parents.empty())
      << "set_requires_grad on non-leaf variable";
  node_->requires_grad = requires_grad;
}

void Variable::ZeroGrad() {
  node_->grad_defined = false;
  node_->grad = tensor::Tensor();
}

void Variable::Backward() {
  SAGDFN_CHECK_EQ(size(), 1) << "Backward() requires a scalar output";
  // Topological order via iterative post-order DFS.
  std::vector<internal::Node*> order;
  std::unordered_set<internal::Node*> visited;
  std::vector<std::pair<internal::Node*, size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    if (child < node->parents.size()) {
      internal::Node* parent = node->parents[child].get();
      ++child;
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  node_->AccumulateGrad(tensor::Tensor::Ones(node_->value.shape()));
  // `order` is post-order (parents before children); walk it reversed so
  // each node's grad is complete before it propagates.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* node = *it;
    if (node->backward_fn && node->grad_defined) {
      node->backward_fn(node->grad);
    }
  }
}

Variable Variable::Detach() const {
  return Variable(node_->value, /*requires_grad=*/false);
}

Variable Variable::FromNode(std::shared_ptr<internal::Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

bool GradEnabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

GradModeGuard::GradModeGuard(bool enabled) : previous_(t_grad_enabled) {
  t_grad_enabled = enabled;
}

GradModeGuard::~GradModeGuard() { t_grad_enabled = previous_; }

}  // namespace sagdfn::autograd
