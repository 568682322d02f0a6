// Layer abstraction for the from-scratch neural-network substrate.
//
// Every layer maps a rank-2 batch [N, D_in] to [N, D_out] and implements
// reverse-mode differentiation via backward(). Layers with spatial
// semantics (Conv2D, MaxPool2D) carry their own (channels, height, width)
// configuration and treat each row as a flattened NCHW image; keeping the
// inter-layer contract at rank 2 keeps the attack algorithms (which view
// inputs as flat feature vectors) and the Sequential container simple.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace opad {

/// Abstract differentiable layer.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer& operator=(const Layer&) = delete;

  /// Deep copy of this layer (parameters, configuration, and any Rng
  /// stream; forward caches come along but are overwritten by the next
  /// forward()). Replica layers back the per-worker model copies that the
  /// parallel detection loop attacks concurrently.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Computes outputs for a batch; caches whatever backward() needs.
  /// `training` lets stochastic layers (none currently) switch behaviour.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Propagates the loss gradient w.r.t. this layer's output back to its
  /// input, accumulating parameter gradients along the way. Must be called
  /// after forward() with a matching batch size.
  Tensor backward(const Tensor& grad_output) {
    return backward_pass(grad_output, /*input_grad=*/true,
                         /*param_grads=*/true);
  }

  /// The input half of backward(): the same input gradient, bit for bit,
  /// with the parameter-gradient work skipped and gradients() left
  /// untouched. Attack gradients (Classifier::input_gradient_batch) take
  /// this path.
  Tensor backward_input(const Tensor& grad_output) {
    return backward_pass(grad_output, /*input_grad=*/true,
                         /*param_grads=*/false);
  }

  /// The parameter half of backward(): the same parameter gradients, bit
  /// for bit, without forming the input gradient. A network's first layer
  /// takes this path in training, where nothing reads that gradient.
  void backward_params(const Tensor& grad_output) {
    backward_pass(grad_output, /*input_grad=*/false, /*param_grads=*/true);
  }

  /// Trainable parameter tensors (possibly empty). Pointers remain valid
  /// for the lifetime of the layer.
  virtual std::vector<Tensor*> parameters() { return {}; }

  /// Gradient tensors aligned 1:1 with parameters().
  virtual std::vector<Tensor*> gradients() { return {}; }

  /// Sets all parameter gradients to zero.
  void zero_gradients() {
    for (Tensor* g : gradients()) g->fill(0.0f);
  }

  /// Output feature count for a given input feature count; used by
  /// Sequential to validate layer chaining at construction time.
  virtual std::size_t output_dim(std::size_t input_dim) const = 0;

  /// Short layer description, e.g. "Dense(64->10)".
  virtual std::string name() const = 0;

 protected:
  /// The one backward implementation behind backward(), backward_input()
  /// and backward_params(): the input gradient is formed only when
  /// `input_grad` is set (otherwise an empty tensor is returned), and
  /// parameter gradients are accumulated only when `param_grads` is set.
  virtual Tensor backward_pass(const Tensor& grad_output, bool input_grad,
                               bool param_grads) = 0;

  /// Copying is reserved for the clone() implementations of concrete
  /// layers (protected to prevent accidental slicing through the base).
  Layer(const Layer&) = default;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace opad
