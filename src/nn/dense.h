// Fully connected layer: y = x W + b.
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace opad {

class Dense : public Layer {
 public:
  /// He-normal initialised weights [in, out], zero bias [out].
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  std::size_t output_dim(std::size_t input_dim) const override;
  std::string name() const override;
  LayerPtr clone() const override { return std::make_unique<Dense>(*this); }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  Tensor backward_pass(const Tensor& grad_output, bool input_grad,
                       bool param_grads) override;

  std::size_t in_;
  std::size_t out_;
  Tensor weight_;       // [in, out]
  Tensor bias_;         // [out]
  Tensor grad_weight_;  // [in, out]
  Tensor grad_bias_;    // [out]
  Tensor cached_input_; // [n, in]
};

}  // namespace opad
