#include "nn/dropout.h"

#include <sstream>

namespace opad {

Dropout::Dropout(float rate, Rng& rng) : rate_(rate), rng_(rng.split()) {
  OPAD_EXPECTS_MSG(rate >= 0.0f && rate < 1.0f,
                   "dropout rate must be in [0, 1), got " << rate);
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  last_training_ = training;
  if (!training || rate_ == 0.0f) {
    return input;
  }
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  mask_ = Tensor(input.shape());
  Tensor out = input;
  auto m = mask_.data();
  auto o = out.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    const float factor = rng_.bernoulli(keep) ? scale : 0.0f;
    m[i] = factor;
    o[i] *= factor;
  }
  return out;
}

Tensor Dropout::backward_pass(const Tensor& grad_output, bool input_grad,
                              bool /*param_grads*/) {
  if (!input_grad) return {};
  if (!last_training_ || rate_ == 0.0f) {
    return grad_output;
  }
  OPAD_EXPECTS(grad_output.shape() == mask_.shape());
  Tensor grad = grad_output;
  grad *= mask_;
  return grad;
}

std::string Dropout::name() const {
  std::ostringstream os;
  os << "Dropout(" << rate_ << ")";
  return os.str();
}

}  // namespace opad
