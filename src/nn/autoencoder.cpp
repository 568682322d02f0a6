#include "nn/autoencoder.h"

#include <algorithm>
#include <numeric>

#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace opad {

Autoencoder::Autoencoder(std::size_t input_dim,
                         const AutoencoderConfig& config, Rng& rng)
    : input_dim_(input_dim),
      latent_dim_(config.latent_dim),
      config_(config),
      network_(input_dim) {
  OPAD_EXPECTS(input_dim > 0 && config.latent_dim > 0);
  // Encoder: input -> hidden... -> latent.
  std::size_t prev = input_dim;
  std::size_t layers = 0;
  for (std::size_t h : config.encoder_hidden) {
    network_.emplace<Dense>(prev, h, rng);
    network_.emplace<ReLU>();
    prev = h;
    layers += 2;
  }
  network_.emplace<Dense>(prev, latent_dim_, rng);
  layers += 1;
  encoder_layers_ = layers;
  // Decoder: latent -> mirrored hidden... -> input.
  prev = latent_dim_;
  for (auto it = config.encoder_hidden.rbegin();
       it != config.encoder_hidden.rend(); ++it) {
    network_.emplace<Dense>(prev, *it, rng);
    network_.emplace<ReLU>();
    prev = *it;
  }
  network_.emplace<Dense>(prev, input_dim, rng);
}

Autoencoder::Autoencoder(std::size_t input_dim, std::size_t latent_dim,
                         std::size_t encoder_layers,
                         AutoencoderConfig config, Sequential network)
    : input_dim_(input_dim),
      latent_dim_(latent_dim),
      encoder_layers_(encoder_layers),
      config_(std::move(config)),
      network_(std::move(network)) {}

Autoencoder Autoencoder::clone() const {
  return Autoencoder(input_dim_, latent_dim_, encoder_layers_, config_,
                     network_.clone());
}

double Autoencoder::train(const Tensor& inputs, Rng& rng) {
  OPAD_EXPECTS(inputs.rank() == 2 && inputs.dim(1) == input_dim_);
  OPAD_EXPECTS(inputs.dim(0) > 0);
  Adam opt(network_.parameters(), network_.gradients(),
           config_.learning_rate);
  MeanSquaredError mse;
  const std::size_t n = inputs.dim(0);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  double last_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t end = std::min(start + config_.batch_size, n);
      Tensor batch({end - start, input_dim_});
      for (std::size_t b = start; b < end; ++b) {
        batch.set_row(b - start, inputs.row_span(order[b]));
      }
      network_.zero_gradients();
      const Tensor out = network_.forward(batch, /*training=*/true);
      loss_sum += mse.loss(out, batch);
      network_.backward_params(mse.gradient(out, batch));
      opt.step();
      ++batches;
    }
    last_epoch_loss = loss_sum / static_cast<double>(batches);
  }
  return last_epoch_loss;
}

Tensor Autoencoder::reconstruct(const Tensor& inputs) {
  return network_.forward(inputs, /*training=*/false);
}

Tensor Autoencoder::encode(const Tensor& inputs) {
  return network_.forward_prefix(inputs, encoder_layers_);
}

std::vector<double> Autoencoder::reconstruction_errors(const Tensor& inputs) {
  const Tensor out = reconstruct(inputs);
  return MeanSquaredError{}.per_row_loss(out, inputs);
}

double Autoencoder::reconstruction_error(const Tensor& input) {
  OPAD_EXPECTS(input.rank() == 1 && input.dim(0) == input_dim_);
  const Tensor batch = input.reshaped({1, input_dim_});
  return reconstruction_errors(batch)[0];
}

Tensor Autoencoder::error_input_gradient(const Tensor& input) {
  OPAD_EXPECTS(input.rank() == 1 && input.dim(0) == input_dim_);
  const Tensor batch = input.reshaped({1, input_dim_});
  const Tensor out = network_.forward(batch, /*training=*/true);
  MeanSquaredError mse;
  // d/dx MSE(f(x), x) has two terms: through the network output and the
  // direct dependence on the target x. The chain through the target is
  // -grad, so combine both.
  const Tensor grad_out = mse.gradient(out, batch);
  Tensor grad_through_net = network_.backward_input(grad_out);
  Tensor grad_target = grad_out;  // d/dtarget MSE = -(grad wrt prediction)
  grad_target *= -1.0f;
  grad_through_net += grad_target;
  return grad_through_net.reshaped({input_dim_});
}

}  // namespace opad
