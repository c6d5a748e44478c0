#ifndef SAGDFN_NN_MODULE_H_
#define SAGDFN_NN_MODULE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace sagdfn::nn {

/// Base class for neural-network modules.
///
/// A Module owns its trainable parameters (as autograd::Variable handles)
/// and knows its submodules, so parameter collection, gradient zeroing,
/// counting, and (de)serialization work uniformly across the model tree.
/// Submodule registration is non-owning: the parent stores members by
/// value and registers pointers to them.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  // Modules are identity objects (parameter registries); copying one would
  // silently alias or duplicate parameters.
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its descendants, with dotted
  /// qualified names (e.g. "encoder.cell.weight"). Handles share storage
  /// with the module's own members.
  std::vector<std::pair<std::string, autograd::Variable>> NamedParameters()
      const;

  /// All parameter handles, depth-first.
  std::vector<autograd::Variable> Parameters() const;

  /// Non-trainable state tensors included in checkpoints but not in
  /// Parameters() (e.g. SAGDFN's frozen significant-node index set), with
  /// dotted qualified names. Handles share storage with the module.
  std::vector<std::pair<std::string, tensor::Tensor>> NamedBuffers() const;

  /// Called by nn::LoadModule after all parameters and buffers have been
  /// filled, so modules can rebuild derived state from buffers.
  virtual void OnStateLoaded() {}

  /// Total trainable scalar count.
  int64_t ParameterCount() const;

  /// Clears gradients on every parameter.
  void ZeroGrad();

  /// Switches training/eval behaviour (teacher forcing, SNS exploration)
  /// for the whole tree.
  void SetTraining(bool training);
  bool training() const { return training_; }

 protected:
  /// Registers a trainable parameter; returns a handle the subclass should
  /// keep as a member. Marks it requires_grad.
  autograd::Variable RegisterParameter(std::string name,
                                       autograd::Variable param);

  /// Registers a child module (non-owning; `child` must outlive `this`).
  void RegisterModule(std::string name, Module* child);

  /// Registers a non-trainable state tensor; returns a handle the
  /// subclass should keep (writes through it update the checkpointed
  /// storage).
  tensor::Tensor RegisterBuffer(std::string name, tensor::Tensor buffer);

 private:
  std::vector<std::pair<std::string, autograd::Variable>> params_;
  std::vector<std::pair<std::string, tensor::Tensor>> buffers_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace sagdfn::nn

#endif  // SAGDFN_NN_MODULE_H_
