#include "nn/activation.h"

#include <cmath>
#include <sstream>

namespace opad {

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = input;
  out.map([](float x) { return x > 0.0f ? x : 0.0f; });
  return out;
}

Tensor ReLU::backward_pass(const Tensor& grad_output,
                           bool /*param_grads*/) {
  OPAD_EXPECTS(grad_output.shape() == cached_input_.shape());
  Tensor grad = grad_output;
  auto gi = grad.data();
  auto xi = cached_input_.data();
  for (std::size_t i = 0; i < gi.size(); ++i) {
    if (xi[i] <= 0.0f) gi[i] = 0.0f;
  }
  return grad;
}

LeakyReLU::LeakyReLU(float slope) : slope_(slope) {
  OPAD_EXPECTS(slope >= 0.0f && slope < 1.0f);
}

Tensor LeakyReLU::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = input;
  const float s = slope_;
  out.map([s](float x) { return x > 0.0f ? x : s * x; });
  return out;
}

Tensor LeakyReLU::backward_pass(const Tensor& grad_output,
                                bool /*param_grads*/) {
  OPAD_EXPECTS(grad_output.shape() == cached_input_.shape());
  Tensor grad = grad_output;
  auto gi = grad.data();
  auto xi = cached_input_.data();
  for (std::size_t i = 0; i < gi.size(); ++i) {
    if (xi[i] <= 0.0f) gi[i] *= slope_;
  }
  return grad;
}

std::string LeakyReLU::name() const {
  std::ostringstream os;
  os << "LeakyReLU(" << slope_ << ")";
  return os.str();
}

Tensor Tanh::forward(const Tensor& input, bool /*training*/) {
  Tensor out = input;
  out.map([](float x) { return std::tanh(x); });
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward_pass(const Tensor& grad_output,
                           bool /*param_grads*/) {
  OPAD_EXPECTS(grad_output.shape() == cached_output_.shape());
  Tensor grad = grad_output;
  auto gi = grad.data();
  auto yi = cached_output_.data();
  for (std::size_t i = 0; i < gi.size(); ++i) {
    gi[i] *= 1.0f - yi[i] * yi[i];
  }
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input, bool /*training*/) {
  Tensor out = input;
  out.map([](float x) { return 1.0f / (1.0f + std::exp(-x)); });
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward_pass(const Tensor& grad_output,
                              bool /*param_grads*/) {
  OPAD_EXPECTS(grad_output.shape() == cached_output_.shape());
  Tensor grad = grad_output;
  auto gi = grad.data();
  auto yi = cached_output_.data();
  for (std::size_t i = 0; i < gi.size(); ++i) {
    gi[i] *= yi[i] * (1.0f - yi[i]);
  }
  return grad;
}

}  // namespace opad
