// The per-batch detector pass of the online service: one batched forward
// for labels plus a parallel detector-score sweep for naturalness.
#pragma once

#include <span>

#include "detect/detector.h"
#include "nn/model.h"
#include "serve/types.h"
#include "tensor/tensor.h"

namespace opad::serve {

/// Scores one micro-batch with any zoo detector: model labels via a
/// single predict_batch, naturalness via Detector::score_batch, verdicts
/// at the detector's own threshold. Every output row is a pure function
/// of its own input row, so results are invariant to how requests were
/// coalesced into batches. `model` is any ForwardScorer (the service's
/// Classifier, or a decorator around one).
void score_batch(ForwardScorer& model, const Detector& detector,
                 const Tensor& inputs, std::span<DetectResult> out);

}  // namespace opad::serve
