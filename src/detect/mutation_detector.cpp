#include "detect/mutation_detector.h"

#include <cmath>
#include <vector>

#include "util/error.h"

namespace opad {

namespace {

/// Root-mean-square of a parameter tensor (double accumulation, fixed
/// element order).
double tensor_rms(const Tensor& t) {
  if (t.size() == 0) return 0.0;
  double acc = 0.0;
  for (float v : t.data()) acc += static_cast<double>(v) * v;
  return std::sqrt(acc / static_cast<double>(t.size()));
}

}  // namespace

MutationDetector::MutationDetector(const Classifier& model,
                                   MutationConfig config)
    : model_(model.clone()), config_(config) {
  OPAD_EXPECTS(config_.replicas >= 1);
  OPAD_EXPECTS(config_.sigma > 0.0);
}

MutationDetector::MutationDetector(const MutationDetector& other)
    : Detector(other), model_(other.model_.clone()), config_(other.config_) {
  replicas_.reserve(other.replicas_.size());
  for (const Classifier& rep : other.replicas_) {
    replicas_.push_back(rep.clone());
  }
}

void MutationDetector::fit(const Dataset& reference, Rng& rng) {
  OPAD_EXPECTS(reference.dim() == dim());
  const std::uint64_t base_seed = rng();
  replicas_.clear();
  replicas_.reserve(config_.replicas);
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    Classifier replica = model_.clone();
    Rng stream(derive_stream_seed(base_seed, r));
    for (Tensor* param : replica.network().parameters()) {
      const double rms = tensor_rms(*param);
      // Zero-RMS tensors (e.g. zero-initialised biases) fall back to an
      // absolute sigma so they are still mutated.
      const double scale = rms > 0.0 ? config_.sigma * rms : config_.sigma;
      for (float& v : param->data()) {
        v += static_cast<float>(scale * stream.normal());
      }
    }
    replicas_.push_back(std::move(replica));
  }
}

void MutationDetector::score_batch(const Tensor& inputs,
                                   std::span<double> out) const {
  OPAD_EXPECTS_MSG(!replicas_.empty(), "MutationDetector is not fitted");
  OPAD_EXPECTS(inputs.rank() == 2 && inputs.dim(1) == dim());
  OPAD_EXPECTS(out.size() == inputs.dim(0));
  const std::size_t n = inputs.dim(0);
  std::vector<int> base(n);
  model_.predict_batch(inputs, base);
  // Replicas run serially (each predict_batch already parallelises its
  // GEMM across the pool); the label-change count is integer arithmetic,
  // so the score is trivially bit-identical for any batch composition.
  std::vector<int> mutated(n);
  std::vector<std::size_t> changed(n, 0);
  for (Classifier& replica : replicas_) {
    replica.predict_batch(inputs, mutated);
    for (std::size_t r = 0; r < n; ++r) {
      if (mutated[r] != base[r]) ++changed[r];
    }
  }
  const double denom = static_cast<double>(replicas_.size());
  for (std::size_t r = 0; r < n; ++r) {
    out[r] = -(static_cast<double>(changed[r]) / denom);
  }
}

std::shared_ptr<const Detector> MutationDetector::thread_replica() const {
  return std::shared_ptr<const Detector>(new MutationDetector(*this));
}

}  // namespace opad
