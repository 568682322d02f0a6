// Minibatch training loop for Classifier models.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "nn/model.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace opad {

struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  double learning_rate = 0.01;
  double momentum = 0.9;
  double weight_decay = 0.0;
  bool use_adam = false;
  /// Stop early when the training loss over an epoch drops below this.
  std::optional<double> loss_target;
  /// Log each epoch's loss and training-set accuracy. The accuracy costs
  /// one inference pass over the inputs, so it is computed only here.
  bool verbose = false;
};

struct EpochStats {
  std::size_t epoch = 0;
  double mean_loss = 0.0;
};

struct TrainHistory {
  std::vector<EpochStats> epochs;
  double final_loss() const {
    return epochs.empty() ? 0.0 : epochs.back().mean_loss;
  }
};

/// Trains `model` on (inputs [n, d], labels [n]), shuffling each epoch.
/// Optional `sample_weights` (length n) are carried through to the loss,
/// which is how the RQ4 retrainer injects OP importance weights.
TrainHistory train_classifier(Classifier& model, const Tensor& inputs,
                              std::span<const int> labels,
                              const TrainConfig& config, Rng& rng,
                              std::span<const double> sample_weights = {});

}  // namespace opad
