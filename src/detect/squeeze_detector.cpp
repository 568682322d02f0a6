#include "detect/squeeze_detector.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace opad {

namespace {

bool bit_depth_enabled(const SqueezeConfig& c) { return c.bits > 0; }
bool median_enabled(const SqueezeConfig& c) { return c.median_window > 1; }

/// Per-row L1 distance between two probability tensors, accumulated in
/// double in fixed column-ascending order; writes max(out[r], dist) so
/// squeezers fold into the running maximum.
void fold_l1_divergence(const Tensor& p, const Tensor& q,
                        std::span<double> out) {
  for (std::size_t r = 0; r < p.dim(0); ++r) {
    const auto pr = p.row_span(r);
    const auto qr = q.row_span(r);
    double dist = 0.0;
    for (std::size_t c = 0; c < pr.size(); ++c) {
      dist += std::abs(static_cast<double>(pr[c]) -
                       static_cast<double>(qr[c]));
    }
    out[r] = std::max(out[r], dist);
  }
}

}  // namespace

Tensor squeeze_bit_depth(const Tensor& x, const SqueezeConfig& config) {
  OPAD_EXPECTS(config.bits > 0 && config.bits <= 16);
  OPAD_EXPECTS(config.input_hi > config.input_lo);
  const float levels = static_cast<float>((1 << config.bits) - 1);
  const float lo = config.input_lo;
  const float span = config.input_hi - config.input_lo;
  Tensor out = x;
  for (float& v : out.data()) {
    const float unit = std::clamp((v - lo) / span, 0.0f, 1.0f);
    v = lo + span * (std::round(unit * levels) / levels);
  }
  return out;
}

Tensor squeeze_median_filter(const Tensor& x, const SqueezeConfig& config) {
  const std::size_t w = config.median_window;
  OPAD_EXPECTS_MSG(w % 2 == 1, "median window must be odd");
  OPAD_EXPECTS(x.rank() == 2);
  const std::size_t d = x.dim(1);
  const std::size_t half = w / 2;
  Tensor out = x;
  std::vector<float> window(w);
  for (std::size_t r = 0; r < x.dim(0); ++r) {
    const auto src = x.row_span(r);
    auto dst = out.row_span(r);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t o = 0; o < w; ++o) {
        // Edge handling: clamp neighbour indices into [0, d).
        const std::ptrdiff_t j =
            std::clamp<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(i) +
                                           static_cast<std::ptrdiff_t>(o) -
                                           static_cast<std::ptrdiff_t>(half),
                                       0, static_cast<std::ptrdiff_t>(d) - 1);
        window[o] = src[static_cast<std::size_t>(j)];
      }
      std::nth_element(window.begin(), window.begin() + half, window.end());
      dst[i] = window[half];
    }
  }
  return out;
}

SqueezeDetector::SqueezeDetector(const Classifier& model, SqueezeConfig config)
    : model_(model.clone()), config_(config) {
  OPAD_EXPECTS_MSG(bit_depth_enabled(config_) || median_enabled(config_),
                   "at least one squeezer must be enabled");
  if (median_enabled(config_)) {
    OPAD_EXPECTS_MSG(config_.median_window % 2 == 1,
                     "median window must be odd");
  }
}

SqueezeDetector::SqueezeDetector(const SqueezeDetector& other)
    : Detector(other),
      model_(other.model_.clone()),
      config_(other.config_),
      fitted_(other.fitted_) {}

void SqueezeDetector::fit(const Dataset& reference, Rng&) {
  OPAD_EXPECTS(reference.dim() == dim());
  fitted_ = true;
}

void SqueezeDetector::score_batch(const Tensor& inputs,
                                  std::span<double> out) const {
  OPAD_EXPECTS_MSG(fitted_, "SqueezeDetector is not fitted");
  OPAD_EXPECTS(inputs.rank() == 2 && inputs.dim(1) == dim());
  OPAD_EXPECTS(out.size() == inputs.dim(0));
  const Tensor probs = model_.probabilities(inputs);
  std::fill(out.begin(), out.end(), 0.0);
  if (bit_depth_enabled(config_)) {
    const Tensor squeezed = model_.probabilities(
        squeeze_bit_depth(inputs, config_));
    fold_l1_divergence(probs, squeezed, out);
  }
  if (median_enabled(config_)) {
    const Tensor squeezed = model_.probabilities(
        squeeze_median_filter(inputs, config_));
    fold_l1_divergence(probs, squeezed, out);
  }
  for (double& v : out) v = -v;
}

std::shared_ptr<const Detector> SqueezeDetector::thread_replica() const {
  return std::shared_ptr<const Detector>(new SqueezeDetector(*this));
}

}  // namespace opad
