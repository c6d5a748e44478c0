#include "autograd/grad_check.h"

#include <cmath>
#include <sstream>

#include "utils/check.h"

namespace sagdfn::autograd {
namespace {

// Central-difference step.
constexpr double kEpsilon = 1e-3;
// Absolute slack for near-zero gradients.
constexpr double kAbsoluteTolerance = 1e-3;

}  // namespace

bool CheckGradients(
    const std::function<Variable(const std::vector<Variable>&)>& fn,
    const std::vector<tensor::Tensor>& inputs, std::string* error,
    const GradCheckOptions& options) {
  // Analytic pass.
  std::vector<Variable> vars;
  vars.reserve(inputs.size());
  for (const auto& t : inputs) {
    vars.emplace_back(t.Clone(), /*requires_grad=*/true);
  }
  Variable out = fn(vars);
  SAGDFN_CHECK_EQ(out.size(), 1) << "CheckGradients requires scalar output";
  out.Backward();

  auto eval = [&](const std::vector<tensor::Tensor>& points) {
    NoGradGuard guard;
    std::vector<Variable> vs;
    vs.reserve(points.size());
    for (const auto& t : points) vs.emplace_back(t, false);
    return static_cast<double>(fn(vs).value().Item());
  };

  for (size_t vi = 0; vi < inputs.size(); ++vi) {
    tensor::Tensor analytic = vars[vi].grad();
    for (int64_t e = 0; e < inputs[vi].size(); ++e) {
      // Central difference on element (vi, e).
      std::vector<tensor::Tensor> plus;
      std::vector<tensor::Tensor> minus;
      for (size_t vj = 0; vj < inputs.size(); ++vj) {
        plus.push_back(inputs[vj].Clone());
        minus.push_back(inputs[vj].Clone());
      }
      plus[vi][e] += static_cast<float>(kEpsilon);
      minus[vi][e] -= static_cast<float>(kEpsilon);
      const double numeric = (eval(plus) - eval(minus)) / (2.0 * kEpsilon);
      const double got = analytic[e];
      const double denom = std::max(1.0, std::fabs(numeric));
      if (std::fabs(got - numeric) / denom > options.tolerance &&
          std::fabs(got - numeric) > kAbsoluteTolerance) {
        if (error != nullptr) {
          std::ostringstream os;
          os << "gradient mismatch at input " << vi << " element " << e
             << ": analytic=" << got << " numeric=" << numeric;
          *error = os.str();
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace sagdfn::autograd
