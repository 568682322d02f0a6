// Parameter-free activation layers.
#pragma once

#include "nn/layer.h"

namespace opad {

/// Rectified linear unit: max(0, x).
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  std::size_t output_dim(std::size_t input_dim) const override {
    return input_dim;
  }
  std::string name() const override { return "ReLU"; }
  LayerPtr clone() const override { return std::make_unique<ReLU>(*this); }

 private:
  Tensor backward_pass(const Tensor& grad_output, bool input_grad,
                       bool param_grads) override;

  Tensor cached_input_;
};

/// Leaky rectified linear unit: x > 0 ? x : slope * x.
class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.01f);
  Tensor forward(const Tensor& input, bool training) override;
  std::size_t output_dim(std::size_t input_dim) const override {
    return input_dim;
  }
  std::string name() const override;
  LayerPtr clone() const override {
    return std::make_unique<LeakyReLU>(*this);
  }

 private:
  Tensor backward_pass(const Tensor& grad_output, bool input_grad,
                       bool param_grads) override;

  float slope_;
  Tensor cached_input_;
};

/// Hyperbolic tangent.
class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  std::size_t output_dim(std::size_t input_dim) const override {
    return input_dim;
  }
  std::string name() const override { return "Tanh"; }
  LayerPtr clone() const override { return std::make_unique<Tanh>(*this); }

 private:
  Tensor backward_pass(const Tensor& grad_output, bool input_grad,
                       bool param_grads) override;

  Tensor cached_output_;
};

/// Logistic sigmoid.
class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  std::size_t output_dim(std::size_t input_dim) const override {
    return input_dim;
  }
  std::string name() const override { return "Sigmoid"; }
  LayerPtr clone() const override {
    return std::make_unique<Sigmoid>(*this);
  }

 private:
  Tensor backward_pass(const Tensor& grad_output, bool input_grad,
                       bool param_grads) override;

  Tensor cached_output_;
};

}  // namespace opad
