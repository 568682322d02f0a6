#include "serve/detector.h"

#include <vector>

#include "util/error.h"

namespace opad::serve {

void score_batch(ForwardScorer& model, const Detector& detector,
                 const Tensor& inputs, std::span<DetectResult> out) {
  const std::size_t n = inputs.dim(0);
  OPAD_EXPECTS(out.size() == n);
  std::vector<int> labels(n);
  model.predict_batch(inputs, labels);
  std::vector<double> naturalness(n);
  detector.score_batch(inputs, naturalness);
  const double threshold = detector.threshold();
  for (std::size_t r = 0; r < n; ++r) {
    out[r].label = labels[r];
    out[r].naturalness = naturalness[r];
    out[r].natural = naturalness[r] >= threshold;
  }
}

}  // namespace opad::serve
