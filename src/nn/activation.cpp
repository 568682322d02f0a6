#include "nn/activation.h"

#include <cmath>
#include <sstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace opad {

namespace {

// ReLU selects through a compare mask, never a branch: an activation's
// sign is close to a coin flip, so a branch per element mispredicts about
// half the time. The masks keep the scalar formulas bit for bit: x > 0
// is false for NaN and for -0, so both come out +0 forward, and x <= 0
// is false for NaN, so a NaN input passes its gradient through.

/// x[i] = x[i] > 0 ? x[i] : +0, in place.
void relu_forward(std::span<float> x) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128 zero = _mm_setzero_ps();
  for (; i + 4 <= x.size(); i += 4) {
    const __m128 v = _mm_loadu_ps(x.data() + i);
    _mm_storeu_ps(x.data() + i, _mm_and_ps(_mm_cmpgt_ps(v, zero), v));
  }
#endif
  for (; i < x.size(); ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

/// g[i] = x[i] <= 0 ? +0 : g[i], in place.
void relu_backward(std::span<const float> x, std::span<float> g) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128 zero = _mm_setzero_ps();
  for (; i + 4 <= g.size(); i += 4) {
    const __m128 dead = _mm_cmple_ps(_mm_loadu_ps(x.data() + i), zero);
    _mm_storeu_ps(g.data() + i,
                  _mm_andnot_ps(dead, _mm_loadu_ps(g.data() + i)));
  }
#endif
  for (; i < g.size(); ++i) g[i] = x[i] <= 0.0f ? 0.0f : g[i];
}

}  // namespace

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = input;
  relu_forward(out.data());
  return out;
}

Tensor ReLU::backward_pass(const Tensor& grad_output, bool input_grad,
                           bool /*param_grads*/) {
  OPAD_EXPECTS(grad_output.shape() == cached_input_.shape());
  if (!input_grad) return {};
  Tensor grad = grad_output;
  relu_backward(cached_input_.data(), grad.data());
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

Tensor LeakyReLU::backward_pass(const Tensor& grad_output, bool input_grad,
                                bool /*param_grads*/) {
  OPAD_EXPECTS(grad_output.shape() == cached_input_.shape());
  if (!input_grad) return {};
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

Tensor Tanh::backward_pass(const Tensor& grad_output, bool input_grad,
                           bool /*param_grads*/) {
  OPAD_EXPECTS(grad_output.shape() == cached_output_.shape());
  if (!input_grad) return {};
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

Tensor Sigmoid::backward_pass(const Tensor& grad_output, bool input_grad,
                              bool /*param_grads*/) {
  OPAD_EXPECTS(grad_output.shape() == cached_output_.shape());
  if (!input_grad) return {};
  Tensor grad = grad_output;
  auto gi = grad.data();
  auto yi = cached_output_.data();
  for (std::size_t i = 0; i < gi.size(); ++i) {
    gi[i] *= yi[i] * (1.0f - yi[i]);
  }
  return grad;
}

}  // namespace opad
