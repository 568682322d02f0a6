// Local Intrinsic Dimensionality detector (Ma et al., ICLR 2018).
//
// Adversarial examples sit in regions of locally higher intrinsic
// dimensionality than natural data. For each layer activation a_l(x)
// (captured through the ActivationTape hook), the detector estimates
//
//   LID_l(x) = -k / sum_{i=1..k} log(r_i / r_k)
//
// over the k nearest neighbours of a_l(x) in a bank of clean reference
// activations (the maximum-likelihood estimator of Amsaleg et al.). The
// score is the negated mean LID across layers, so higher = more benign,
// matching the zoo convention.
#pragma once

#include <memory>

#include "detect/detector.h"
#include "nn/model.h"

namespace opad {

struct LidConfig {
  /// Neighbourhood size k of the MLE estimator (clamped to bank size - 1).
  std::size_t neighbors = 20;
  /// Reference-activation bank rows; fit() subsamples the reference
  /// dataset down to this many rows (one traced forward pass total).
  std::size_t max_reference = 512;
};

class LidDetector : public Detector {
 public:
  /// Captures activations through a private clone of `model`; queries
  /// spent scoring are charged to that clone, never to the attacked
  /// model's budget (like every other detector, scoring is query-free
  /// from the campaign's point of view).
  LidDetector(const Classifier& model, LidConfig config);

  std::string name() const override { return "LID"; }
  std::size_t dim() const override { return model_.input_dim(); }
  void fit(const Dataset& reference, Rng& rng) override;
  bool fitted() const override { return bank_ != nullptr; }
  void score_batch(const Tensor& inputs,
                   std::span<double> out) const override;

  /// Deep copy (fresh model clone, shared immutable bank): the traced
  /// forward uses per-layer scratch, so concurrent scorers need replicas.
  std::shared_ptr<const Detector> thread_replica() const override;

  std::size_t bank_rows() const;

 private:
  LidDetector(const LidDetector& other);

  // Private replica; layer caches are scratch.
  mutable Classifier model_;
  LidConfig config_;
  /// Per-layer clean activation banks [m, d_l]; immutable once fitted and
  /// shared across thread replicas.
  std::shared_ptr<const std::vector<Tensor>> bank_;
};

}  // namespace opad
