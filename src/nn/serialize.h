// Parameter (de)serialisation. The format is a simple tagged binary
// stream: magic, version, tensor count, then per tensor rank + dims +
// float32 payload. Only parameters are saved; architecture is code.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace opad {

class Sequential;

/// Writes all parameter tensors to `os` in declaration order.
void save_parameters(Sequential& model, std::ostream& os);

/// Reads parameters saved by save_parameters into `model`. The model must
/// have the identical architecture (tensor count and shapes are verified).
/// All-or-nothing: the whole stream is parsed and checked (shapes, a
/// complete payload, finite values) before any parameter is written, so a
/// load that throws IoError leaves `model` bitwise unchanged.
void load_parameters(Sequential& model, std::istream& is);

/// File-path conveniences; throw IoError on failure.
void save_parameters_file(Sequential& model, const std::string& path);
void load_parameters_file(Sequential& model, const std::string& path);

/// Snapshots / restores parameters in memory (deep copy). Used by the
/// retraining ablations to reset the model between arms.
std::vector<Tensor> snapshot_parameters(Sequential& model);
void restore_parameters(Sequential& model,
                        const std::vector<Tensor>& snapshot);

}  // namespace opad
