#ifndef SAGDFN_AUTOGRAD_GRAD_CHECK_H_
#define SAGDFN_AUTOGRAD_GRAD_CHECK_H_

#include <functional>
#include <string>
#include <vector>

#include "autograd/variable.h"

namespace sagdfn::autograd {

/// Options for finite-difference gradient verification. The central
/// difference steps by 1e-3, and a mismatch within 1e-3 absolute always
/// passes (slack for near-zero gradients).
struct GradCheckOptions {
  /// Max allowed |analytic - numeric| / max(1, |numeric|).
  double tolerance = 5e-2;
};

/// Verifies analytic gradients of `fn` (a scalar-valued function of the
/// given inputs) against central finite differences, elementwise over every
/// input. Returns true on success; on failure fills `*error` with the first
/// offending input/element and the two gradient values.
///
/// `fn` must be deterministic and must treat its inputs as the only
/// trainable leaves.
bool CheckGradients(
    const std::function<Variable(const std::vector<Variable>&)>& fn,
    const std::vector<tensor::Tensor>& inputs, std::string* error,
    const GradCheckOptions& options = GradCheckOptions());

}  // namespace sagdfn::autograd

#endif  // SAGDFN_AUTOGRAD_GRAD_CHECK_H_
