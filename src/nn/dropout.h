// Inverted dropout. Active only when forward() is called with
// training = true; at inference it is the identity (no rescaling needed
// because the kept activations are scaled up during training).
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace opad {

class Dropout : public Layer {
 public:
  /// `rate` in [0, 1): probability of zeroing an activation. The layer
  /// owns an Rng stream (split from `rng`) so training remains
  /// deterministic given the construction-time seed.
  Dropout(float rate, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  std::size_t output_dim(std::size_t input_dim) const override {
    return input_dim;
  }
  std::string name() const override;
  LayerPtr clone() const override {
    return std::make_unique<Dropout>(*this);
  }

  float rate() const { return rate_; }

 private:
  Tensor backward_pass(const Tensor& grad_output, bool input_grad,
                       bool param_grads) override;

  float rate_;
  Rng rng_;
  Tensor mask_;            // scale factors applied in the last forward
  bool last_training_ = false;
};

}  // namespace opad
