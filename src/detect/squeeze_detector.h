// Feature-squeezing detector (Xu et al., NDSS 2018).
//
// Squeeze the input (reduce bit depth, median-filter), run the model on
// the original and each squeezed variant, and measure how far the
// predicted class distribution moves: natural inputs are robust to
// squeezing, adversarial perturbations are not. The raw statistic is
// max over squeezers of the L1 distance between softmax rows; the score
// negates it so higher = more benign, matching the zoo convention.
#pragma once

#include <memory>

#include "detect/detector.h"
#include "nn/model.h"

namespace opad {

struct SqueezeConfig {
  /// Bit-depth squeezer: round each feature to 2^bits - 1 uniform levels
  /// between input_lo and input_hi. 0 disables the squeezer.
  int bits = 4;
  /// Median-filter squeezer: odd sliding-window width over the flat
  /// feature vector (edges clamped). 1 or 0 disables the squeezer.
  std::size_t median_window = 3;
  /// Input range the bit-depth squeezer quantises over.
  float input_lo = 0.0f;
  float input_hi = 1.0f;
};

class SqueezeDetector : public Detector {
 public:
  /// Runs predictions on a private clone of `model`; scoring charges no
  /// queries to the attacked model's budget.
  SqueezeDetector(const Classifier& model, SqueezeConfig config);

  std::string name() const override { return "FeatureSqueeze"; }
  std::size_t dim() const override { return model_.input_dim(); }
  /// Purely model-based — fit() only records that the reference was seen
  /// (the interface requires a fit before scoring).
  void fit(const Dataset& reference, Rng& rng) override;
  bool fitted() const override { return fitted_; }
  void score_batch(const Tensor& inputs,
                   std::span<double> out) const override;
  std::shared_ptr<const Detector> thread_replica() const override;

 private:
  SqueezeDetector(const SqueezeDetector& other);

  // Private replica; layer caches are scratch.
  mutable Classifier model_;
  SqueezeConfig config_;
  bool fitted_ = false;
};

/// The squeezers themselves, exposed for tests: rounds every element of
/// `x` to the config's uniform grid / applies the 1-D median filter
/// row-wise. Pure element/row-local float transforms (deterministic).
Tensor squeeze_bit_depth(const Tensor& x, const SqueezeConfig& config);
Tensor squeeze_median_filter(const Tensor& x, const SqueezeConfig& config);

}  // namespace opad
