#include "autograd/variable.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/telemetry.h"
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

/// The "autograd.backward.<op_name>" timer site, made on first use and
/// kept for the life of the process (a TimerSite holds its name by
/// pointer, and the map owns both).
obs::TimerSite& BackwardTimerSite(const char* op_name) {
  static std::mutex mu;
  static auto* sites =
      new std::unordered_map<std::string, std::unique_ptr<obs::TimerSite>>();
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] =
      sites->try_emplace(std::string("autograd.backward.") + op_name);
  if (inserted) {
    it->second = std::make_unique<obs::TimerSite>(it->first.c_str());
  }
  return *it->second;
}

/// Runs each backward_fn in `order` and, when `timed`, charges its wall
/// time to its op kind's timer site. Sites are looked up once per op
/// name per call: op names are string literals, so a name's pointer
/// identifies it within one backward pass.
void RunBackward(const std::vector<internal::Node*>& order, bool timed) {
  std::vector<std::pair<const char*, obs::TimerSite*>> sites;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* node = *it;
    if (!node->backward_fn || !node->grad_defined) continue;
    if (!timed) {
      node->backward_fn(node->grad);
      continue;
    }
    obs::TimerSite* site = nullptr;
    for (const auto& [name, s] : sites) {
      if (name == node->op_name) site = s;
    }
    if (site == nullptr) {
      site = &BackwardTimerSite(node->op_name);
      sites.emplace_back(node->op_name, site);
    }
    const auto t0 = std::chrono::steady_clock::now();
    node->backward_fn(node->grad);
    site->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
}

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
  RunBackward(order, obs::Telemetry::CollectionEnabled());
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
