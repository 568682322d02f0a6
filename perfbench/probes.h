// nn shape probes on a workload's own model.
#pragma once

#include "data/dataset.h"
#include "harness.h"
#include "nn/model.h"

namespace perfbench {

/// Rows in the `bchunk` probe: the streaming chunk size.
inline constexpr std::size_t kChunkRows = 4096;

/// Reports the median per-call microseconds of predict_batch at 1, 32 and
/// kChunkRows rows (nn.predict_us.b1/.b32/.bchunk) and of
/// input_gradient_batch at 1 and 32 rows (nn.input_grad_us.b1/.b32), on
/// a replica of `model` fed rows of `pool`.
void probe_nn(const opad::Classifier& model, const opad::Dataset& pool,
              Report& report);

}  // namespace perfbench
