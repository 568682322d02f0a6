// Loss functions. Losses return the mean loss over the batch and expose
// the gradient with respect to the network output, optionally with
// per-sample importance weights (used by the OP-weighted retrainer, RQ4).
#pragma once

#include <span>

#include "tensor/tensor.h"

namespace opad {

/// Softmax + cross-entropy fused loss over integer class labels.
class SoftmaxCrossEntropy {
 public:
  /// Mean cross-entropy of `logits` [n, k] against `labels` [n].
  /// If `weights` is non-empty it must have length n; the loss becomes the
  /// weighted mean with weights normalised to sum to n (so the gradient
  /// scale matches the unweighted case).
  double loss(const Tensor& logits, std::span<const int> labels,
              std::span<const double> weights = {}) const;

  /// loss() and the gradient of that (weighted) mean loss w.r.t. logits
  /// in one pass over the rows: returns the loss and overwrites `grad`
  /// with the gradient (reshaped to the logits' shape when it differs).
  /// The row walk shares the max, the label check and the normalised
  /// weights, but keeps both sums of exponentials: the loss sums exp in
  /// double as log_softmax_rows does, the gradient sums float exp as
  /// softmax_rows does, so both results equal those two functions' bit
  /// for bit.
  double loss_and_gradient(const Tensor& logits, std::span<const int> labels,
                           std::span<const double> weights,
                           Tensor& grad) const;

  /// Gradient of the *per-sample* (unscaled) loss w.r.t. logits: row i is
  /// d loss_i / d logits_i with no 1/n averaging. Row i is bitwise equal to
  /// the gradient of loss_and_gradient() on the single-row batch
  /// [logits_i], whose scale factor is exactly 1.0f — this is what lets
  /// batched input gradients reproduce the serial per-seed attack walk bit
  /// for bit.
  Tensor gradient_per_sample(const Tensor& logits,
                             std::span<const int> labels) const;

  /// Per-sample cross-entropy values (no averaging).
  std::vector<double> per_sample_loss(const Tensor& logits,
                                      std::span<const int> labels) const;
};

/// Mean squared error; used by the autoencoder naturalness metric.
class MeanSquaredError {
 public:
  /// Mean over all elements of (pred - target)^2.
  double loss(const Tensor& prediction, const Tensor& target) const;

  /// Gradient of the mean loss w.r.t. prediction.
  Tensor gradient(const Tensor& prediction, const Tensor& target) const;

  /// Per-row mean squared error of a rank-2 batch.
  std::vector<double> per_row_loss(const Tensor& prediction,
                                   const Tensor& target) const;
};

}  // namespace opad
