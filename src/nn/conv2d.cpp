#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "tensor/tensor_ops.h"
#include "util/parallel.h"

namespace opad {

Conv2D::Conv2D(ImageGeometry in, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, Rng& rng)
    : in_(in),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_({out_channels, in.channels * kernel * kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in.channels * kernel * kernel}),
      grad_bias_({out_channels}) {
  OPAD_EXPECTS(out_channels > 0 && kernel > 0 && stride > 0);
  out_.channels = out_channels;
  out_.height = conv_out_size(in.height, kernel, stride, pad);
  out_.width = conv_out_size(in.width, kernel, stride, pad);
  const float fan_in =
      static_cast<float>(in.channels) * static_cast<float>(kernel * kernel);
  const float sd = std::sqrt(2.0f / fan_in);
  for (float& w : weight_.data()) {
    w = static_cast<float>(rng.normal(0.0, sd));
  }
}

namespace {
/// Samples per chunk for the gather/scatter loops between the batched
/// layout [out_c, batch*spatial] and row layout [batch, out_c*spatial];
/// shape-dependent only.
std::size_t scatter_grain(std::size_t features) {
  constexpr std::size_t kMinChunkElements = 32768;
  return std::max<std::size_t>(
      1, kMinChunkElements / std::max<std::size_t>(features, 1));
}
}  // namespace

Tensor Conv2D::forward(const Tensor& input, bool /*training*/) {
  OPAD_EXPECTS_MSG(input.rank() == 2 && input.dim(1) == in_.features(),
                   "Conv2D expects [n, " << in_.features() << "], got "
                                         << shape_to_string(input.shape()));
  const std::size_t n = input.dim(0);
  const std::size_t spatial = out_.height * out_.width;
  cached_batch_ = n;
  // Batched lowering: one im2col column matrix for the whole minibatch
  // and ONE large-n GEMM, instead of a per-sample matmul dispatch —
  // [out_c, c*k*k] x [c*k*k, n*oh*ow].
  cached_cols_ = im2col_batch(input, in_.channels, in_.height, in_.width,
                              kernel_, kernel_, stride_, pad_);
  const Tensor result = matmul(weight_, cached_cols_);
  // Scatter [out_c, n*spatial] back into output rows [n, out_c*spatial],
  // adding the bias on the way; samples write disjoint rows.
  Tensor output({n, out_.features()});
  const float* pr = result.data().data();
  float* po = output.data().data();
  parallel_for(0, n, scatter_grain(out_.features()),
               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      for (std::size_t oc = 0; oc < out_.channels; ++oc) {
        const float b = bias_.at(oc);
        const float* src = pr + oc * n * spatial + s * spatial;
        float* dst = po + s * out_.features() + oc * spatial;
        for (std::size_t p = 0; p < spatial; ++p) dst[p] = src[p] + b;
      }
    }
  });
  return output;
}

Tensor Conv2D::backward_pass(const Tensor& grad_output, bool input_grad,
                             bool param_grads) {
  const std::size_t n = cached_batch_;
  OPAD_EXPECTS_MSG(grad_output.rank() == 2 && grad_output.dim(0) == n &&
                       grad_output.dim(1) == out_.features(),
                   "Conv2D backward shape mismatch");
  const std::size_t spatial = out_.height * out_.width;
  // Gather dY into the batched map layout [out_c, n*spatial] so the
  // weight and input gradients are each ONE GEMM over k = n*spatial.
  Tensor grad_maps({out_.channels, n * spatial});
  const float* pg = grad_output.data().data();
  float* pm = grad_maps.data().data();
  parallel_for(0, n, scatter_grain(out_.features()),
               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      for (std::size_t oc = 0; oc < out_.channels; ++oc) {
        const float* src = pg + s * out_.features() + oc * spatial;
        float* dst = pm + oc * n * spatial + s * spatial;
        for (std::size_t p = 0; p < spatial; ++p) dst[p] = src[p];
      }
    }
  });
  if (param_grads) {
    // dW += dY * cols^T. The batched GEMM owes its determinism to the
    // kernel's fixed kc-blocked accumulation over k = n*spatial, which
    // replaces the old per-sample partial fold.
    grad_weight_ += matmul_transpose_b(grad_maps, cached_cols_);
    // dBias: per-channel row sums, each row summed in index order.
    float* pb = grad_bias_.data().data();
    parallel_for(0, out_.channels, scatter_grain(n * spatial),
                 [&](std::size_t lo, std::size_t hi) {
      for (std::size_t oc = lo; oc < hi; ++oc) {
        const float* row = pm + oc * n * spatial;
        float acc = 0.0f;
        for (std::size_t p = 0; p < n * spatial; ++p) acc += row[p];
        pb[oc] += acc;
      }
    });
  }
  if (!input_grad) return {};
  // dX = col2im(W^T * dY), batched: one GEMM, then a per-sample scatter.
  const Tensor grad_cols = matmul_transpose_a(weight_, grad_maps);
  return col2im_batch(grad_cols, n, in_.channels, in_.height, in_.width,
                      kernel_, kernel_, stride_, pad_);
}

std::size_t Conv2D::output_dim(std::size_t input_dim) const {
  OPAD_EXPECTS_MSG(input_dim == in_.features(),
                   name() << " fed " << input_dim << " features, expected "
                          << in_.features());
  return out_.features();
}

std::string Conv2D::name() const {
  std::ostringstream os;
  os << "Conv2D(" << in_.channels << "x" << in_.height << "x" << in_.width
     << " -> " << out_.channels << "x" << out_.height << "x" << out_.width
     << ", k=" << kernel_ << ", s=" << stride_ << ", p=" << pad_ << ")";
  return os.str();
}

MaxPool2D::MaxPool2D(ImageGeometry in, std::size_t window)
    : in_(in), window_(window) {
  OPAD_EXPECTS(window > 0);
  OPAD_EXPECTS_MSG(in.height % window == 0 && in.width % window == 0,
                   "MaxPool2D requires window to divide the spatial dims");
  out_.channels = in.channels;
  out_.height = in.height / window;
  out_.width = in.width / window;
}

Tensor MaxPool2D::forward(const Tensor& input, bool /*training*/) {
  OPAD_EXPECTS(input.rank() == 2 && input.dim(1) == in_.features());
  const std::size_t n = input.dim(0);
  cached_batch_ = n;
  Tensor output({n, out_.features()});
  argmax_.assign(n * out_.features(), 0);
  for (std::size_t s = 0; s < n; ++s) {
    auto row = input.row_span(s);
    std::size_t out_idx = 0;
    for (std::size_t c = 0; c < in_.channels; ++c) {
      const std::size_t plane = c * in_.height * in_.width;
      for (std::size_t oi = 0; oi < out_.height; ++oi) {
        for (std::size_t oj = 0; oj < out_.width; ++oj) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t wi = 0; wi < window_; ++wi) {
            for (std::size_t wj = 0; wj < window_; ++wj) {
              const std::size_t ii = oi * window_ + wi;
              const std::size_t jj = oj * window_ + wj;
              const std::size_t idx = plane + ii * in_.width + jj;
              if (row[idx] > best) {
                best = row[idx];
                best_idx = idx;
              }
            }
          }
          output(s, out_idx) = best;
          argmax_[s * out_.features() + out_idx] = best_idx;
          ++out_idx;
        }
      }
    }
  }
  return output;
}

Tensor MaxPool2D::backward_pass(const Tensor& grad_output, bool input_grad,
                                bool /*param_grads*/) {
  OPAD_EXPECTS(grad_output.rank() == 2 &&
               grad_output.dim(0) == cached_batch_ &&
               grad_output.dim(1) == out_.features());
  if (!input_grad) return {};
  Tensor grad_input({cached_batch_, in_.features()});
  for (std::size_t s = 0; s < cached_batch_; ++s) {
    auto gin = grad_input.row_span(s);
    auto gout = grad_output.row_span(s);
    for (std::size_t o = 0; o < out_.features(); ++o) {
      gin[argmax_[s * out_.features() + o]] += gout[o];
    }
  }
  return grad_input;
}

std::size_t MaxPool2D::output_dim(std::size_t input_dim) const {
  OPAD_EXPECTS(input_dim == in_.features());
  return out_.features();
}

std::string MaxPool2D::name() const {
  std::ostringstream os;
  os << "MaxPool2D(" << window_ << "x" << window_ << ")";
  return os.str();
}

}  // namespace opad
