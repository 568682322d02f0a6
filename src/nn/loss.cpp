#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "tensor/tensor_ops.h"

namespace opad {

namespace {

void check_labels(const Tensor& logits, std::span<const int> labels) {
  OPAD_EXPECTS(logits.rank() == 2);
  OPAD_EXPECTS_MSG(labels.size() == logits.dim(0),
                   "label count " << labels.size() << " != batch size "
                                  << logits.dim(0));
  for (int y : labels) {
    OPAD_EXPECTS_MSG(y >= 0 && static_cast<std::size_t>(y) < logits.dim(1),
                     "label " << y << " out of range");
  }
}

/// Normalises weights to sum to n; empty -> all ones.
std::vector<double> normalised_weights(std::span<const double> weights,
                                       std::size_t n) {
  if (weights.empty()) return std::vector<double>(n, 1.0);
  OPAD_EXPECTS(weights.size() == n);
  double total = 0.0;
  for (double w : weights) {
    OPAD_EXPECTS_MSG(w >= 0.0 && std::isfinite(w),
                     "sample weights must be finite and non-negative");
    total += w;
  }
  OPAD_EXPECTS_MSG(total > 0.0, "sample weights must have positive sum");
  std::vector<double> out(weights.begin(), weights.end());
  const double scale = static_cast<double>(n) / total;
  for (double& w : out) w *= scale;
  return out;
}

}  // namespace

double SoftmaxCrossEntropy::loss(const Tensor& logits,
                                 std::span<const int> labels,
                                 std::span<const double> weights) const {
  check_labels(logits, labels);
  const std::size_t n = logits.dim(0);
  const auto w = normalised_weights(weights, n);
  const Tensor log_probs = log_softmax_rows(logits);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total -= w[i] * log_probs(i, static_cast<std::size_t>(labels[i]));
  }
  return total / static_cast<double>(n);
}

double SoftmaxCrossEntropy::loss_and_gradient(const Tensor& logits,
                                              std::span<const int> labels,
                                              std::span<const double> weights,
                                              Tensor& grad) const {
  check_labels(logits, labels);
  const std::size_t n = logits.dim(0);
  const auto w = normalised_weights(weights, n);
  if (grad.shape() != logits.shape()) grad = Tensor(logits.shape());
  const float inv_n = 1.0f / static_cast<float>(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto z = logits.row_span(i);
    const auto g = grad.row_span(i);
    const auto y = static_cast<std::size_t>(labels[i]);
    const float m = *std::max_element(z.begin(), z.end());
    // Loss: log_softmax_rows' double normaliser.
    double log_sum = 0.0;
    for (float v : z) log_sum += std::exp(static_cast<double>(v) - m);
    const float log_z = m + static_cast<float>(std::log(log_sum));
    total -= w[i] * (z[y] - log_z);
    // Gradient: softmax_rows' float exponentials, double-summed.
    double exp_sum = 0.0;
    for (std::size_t j = 0; j < z.size(); ++j) {
      g[j] = std::exp(z[j] - m);
      exp_sum += static_cast<double>(g[j]);
    }
    OPAD_ENSURES(exp_sum > 0.0);
    for (float& v : g) v = static_cast<float>(static_cast<double>(v) / exp_sum);
    g[y] -= 1.0f;
    const float scale = static_cast<float>(w[i]) * inv_n;
    for (float& v : g) v *= scale;
  }
  return total / static_cast<double>(n);
}

Tensor SoftmaxCrossEntropy::gradient_per_sample(
    const Tensor& logits, std::span<const int> labels) const {
  check_labels(logits, labels);
  Tensor grad = softmax_rows(logits);
  for (std::size_t i = 0; i < logits.dim(0); ++i) {
    grad(i, static_cast<std::size_t>(labels[i])) -= 1.0f;
  }
  return grad;
}

std::vector<double> SoftmaxCrossEntropy::per_sample_loss(
    const Tensor& logits, std::span<const int> labels) const {
  check_labels(logits, labels);
  const Tensor log_probs = log_softmax_rows(logits);
  std::vector<double> out(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out[i] = -log_probs(i, static_cast<std::size_t>(labels[i]));
  }
  return out;
}

double MeanSquaredError::loss(const Tensor& prediction,
                              const Tensor& target) const {
  OPAD_EXPECTS(prediction.shape() == target.shape());
  OPAD_EXPECTS(prediction.size() > 0);
  double total = 0.0;
  auto p = prediction.data();
  auto t = target.data();
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double d = static_cast<double>(p[i]) - t[i];
    total += d * d;
  }
  return total / static_cast<double>(p.size());
}

Tensor MeanSquaredError::gradient(const Tensor& prediction,
                                  const Tensor& target) const {
  OPAD_EXPECTS(prediction.shape() == target.shape());
  OPAD_EXPECTS(prediction.size() > 0);
  Tensor grad = prediction;
  grad -= target;
  grad *= 2.0f / static_cast<float>(prediction.size());
  return grad;
}

std::vector<double> MeanSquaredError::per_row_loss(const Tensor& prediction,
                                                   const Tensor& target) const {
  OPAD_EXPECTS(prediction.rank() == 2);
  OPAD_EXPECTS(prediction.shape() == target.shape());
  const std::size_t n = prediction.dim(0), d = prediction.dim(1);
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    auto p = prediction.row_span(i);
    auto t = target.row_span(i);
    double ss = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = static_cast<double>(p[j]) - t[j];
      ss += diff * diff;
    }
    out[i] = ss / static_cast<double>(d);
  }
  return out;
}

}  // namespace opad
