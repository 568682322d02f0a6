#include "nn/dense.h"

#include <cmath>
#include <sstream>

#include "tensor/tensor_ops.h"

namespace opad {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_({in_features, out_features}),
      bias_({out_features}),
      grad_weight_({in_features, out_features}),
      grad_bias_({out_features}) {
  OPAD_EXPECTS(in_features > 0 && out_features > 0);
  // He-normal initialisation: suited to the ReLU networks used throughout.
  const float sd = std::sqrt(2.0f / static_cast<float>(in_features));
  for (float& w : weight_.data()) {
    w = static_cast<float>(rng.normal(0.0, sd));
  }
}

Tensor Dense::forward(const Tensor& input, bool /*training*/) {
  OPAD_EXPECTS_MSG(input.rank() == 2 && input.dim(1) == in_,
                   "Dense expects [n, " << in_ << "], got "
                                        << shape_to_string(input.shape()));
  cached_input_ = input;
  Tensor out = matmul(input, weight_);
  add_bias_rows(out, bias_);
  return out;
}

Tensor Dense::backward_pass(const Tensor& grad_output, bool input_grad,
                            bool param_grads) {
  OPAD_EXPECTS(grad_output.rank() == 2 && grad_output.dim(1) == out_);
  OPAD_EXPECTS_MSG(cached_input_.rank() == 2 &&
                       cached_input_.dim(0) == grad_output.dim(0),
                   "backward called without a matching forward");
  if (param_grads) {
    grad_weight_ += matmul_transpose_a(cached_input_, grad_output);
    grad_bias_ += sum_rows(grad_output);
  }
  if (!input_grad) return {};
  return matmul_transpose_b(grad_output, weight_);
}

std::size_t Dense::output_dim(std::size_t input_dim) const {
  OPAD_EXPECTS_MSG(input_dim == in_, "Dense(" << in_ << "->" << out_
                                              << ") fed " << input_dim
                                              << " features");
  return out_;
}

std::string Dense::name() const {
  std::ostringstream os;
  os << "Dense(" << in_ << "->" << out_ << ")";
  return os.str();
}

}  // namespace opad
