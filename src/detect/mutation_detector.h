// Model-mutation detector (Wang et al., ICSE 2019).
//
// Adversarial examples sit close to the decision boundary, so their
// predicted label flips easily under small random perturbations of the
// *model weights*. fit() builds R mutated replicas of the classifier —
// each parameter tensor perturbed by Gaussian noise scaled to that
// tensor's RMS, one independent RNG stream per replica via
// derive_stream_seed — and the raw statistic is the label-change rate
// (LCR): the fraction of replicas whose prediction disagrees with the
// unmutated model. The score negates the LCR so higher = more benign.
#pragma once

#include <memory>
#include <vector>

#include "detect/detector.h"
#include "nn/model.h"

namespace opad {

struct MutationConfig {
  /// Number of weight-perturbed replicas.
  std::size_t replicas = 24;
  /// Noise scale, relative to each parameter tensor's RMS: every element
  /// receives sigma * rms(tensor) * N(0, 1).
  double sigma = 0.05;
};

class MutationDetector : public Detector {
 public:
  /// Replicas are cloned from `model` at fit() time; scoring charges no
  /// queries to the attacked model's budget.
  MutationDetector(const Classifier& model, MutationConfig config);

  std::string name() const override { return "MutationScore"; }
  std::size_t dim() const override { return model_.input_dim(); }
  /// Draws one base seed from `rng`, then perturbs replica r with the
  /// independent stream derive_stream_seed(base, r) — the replica bank is
  /// a pure function of the fit-time RNG state, identical however the
  /// replicas are later evaluated.
  void fit(const Dataset& reference, Rng& rng) override;
  bool fitted() const override { return !replicas_.empty(); }
  void score_batch(const Tensor& inputs,
                   std::span<double> out) const override;
  std::shared_ptr<const Detector> thread_replica() const override;

  std::size_t replica_count() const { return replicas_.size(); }

 private:
  MutationDetector(const MutationDetector& other);

  mutable Classifier model_;  // unmutated reference predictions
  MutationConfig config_;
  // Perturbed replicas; layer caches are scratch.
  mutable std::vector<Classifier> replicas_;
};

}  // namespace opad
