#include "nn/trainer.h"

#include <memory>
#include <numeric>

#include "nn/metrics.h"
#include "util/logging.h"

namespace opad {

TrainHistory train_classifier(Classifier& model, const Tensor& inputs,
                              std::span<const int> labels,
                              const TrainConfig& config, Rng& rng,
                              std::span<const double> sample_weights) {
  OPAD_EXPECTS(inputs.rank() == 2);
  OPAD_EXPECTS(inputs.dim(0) == labels.size());
  OPAD_EXPECTS(!labels.empty());
  OPAD_EXPECTS(config.epochs > 0 && config.batch_size > 0);
  OPAD_EXPECTS(sample_weights.empty() ||
               sample_weights.size() == labels.size());

  auto& net = model.network();
  std::unique_ptr<Optimizer> opt;
  if (config.use_adam) {
    opt = std::make_unique<Adam>(net.parameters(), net.gradients(),
                                 config.learning_rate, 0.9, 0.999, 1e-8,
                                 config.weight_decay);
  } else {
    opt = std::make_unique<Sgd>(net.parameters(), net.gradients(),
                                config.learning_rate, config.momentum,
                                config.weight_decay);
  }

  const std::size_t n = labels.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  // Step buffers, reused across steps: the batch tensor is rebuilt only
  // when the batch size changes (the last batch of an epoch may be short).
  const std::vector<Tensor*> grads = net.gradients();
  Tensor batch;
  std::vector<int> batch_labels;
  std::vector<double> batch_weights;

  TrainHistory history;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += config.batch_size) {
      const std::size_t end = std::min(start + config.batch_size, n);
      const std::size_t bs = end - start;
      if (batch.rank() != 2 || batch.dim(0) != bs) {
        batch = Tensor({bs, inputs.dim(1)});
      }
      batch_labels.resize(bs);
      if (!sample_weights.empty()) batch_weights.resize(bs);
      for (std::size_t b = 0; b < bs; ++b) {
        const std::size_t src = order[start + b];
        batch.set_row(b, inputs.row_span(src));
        batch_labels[b] = labels[src];
        if (!sample_weights.empty()) batch_weights[b] = sample_weights[src];
      }
      for (Tensor* g : grads) g->fill(0.0f);
      loss_sum += model.accumulate_gradients(batch, batch_labels,
                                             batch_weights);
      opt->step();
      ++batches;
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss = loss_sum / static_cast<double>(batches);
    history.epochs.push_back(stats);
    if (config.verbose) {
      OPAD_INFO << "epoch " << epoch << " loss " << stats.mean_loss
                << " acc " << evaluate_accuracy(model, inputs, labels);
    }
    if (config.loss_target && stats.mean_loss < *config.loss_target) break;
  }
  return history;
}

}  // namespace opad
