#include "nn/model.h"

#include "tensor/tensor_ops.h"

namespace opad {

Tensor ForwardScorer::probabilities(const Tensor& inputs) {
  return softmax_rows(logits(inputs));
}

void ForwardScorer::predict_batch(const Tensor& inputs,
                                  std::span<int> labels) {
  OPAD_EXPECTS(labels.size() == inputs.dim(0));
  Tensor out = logits(inputs);
  for (std::size_t i = 0; i < out.dim(0); ++i) {
    auto row = out.row_span(i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < row.size(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    labels[i] = static_cast<int>(best);
  }
}

std::vector<int> ForwardScorer::predict_labels(const Tensor& inputs) {
  std::vector<int> labels(inputs.dim(0));
  predict_batch(inputs, labels);
  return labels;
}

Sequential::Sequential(std::size_t input_dim)
    : input_dim_(input_dim), output_dim_(input_dim) {
  OPAD_EXPECTS(input_dim > 0);
}

void Sequential::add(LayerPtr layer) {
  OPAD_EXPECTS(layer != nullptr);
  output_dim_ = layer->output_dim(output_dim_);  // validates chaining
  layers_.push_back(std::move(layer));
}

Sequential Sequential::clone() const {
  Sequential copy(input_dim_);
  for (const LayerPtr& layer : layers_) copy.add(layer->clone());
  return copy;
}

Tensor Sequential::forward(const Tensor& input, bool training,
                           ActivationTape* tape) {
  OPAD_EXPECTS_MSG(input.rank() == 2 && input.dim(1) == input_dim_,
                   "model expects [n, " << input_dim_ << "], got "
                                        << shape_to_string(input.shape()));
  Tensor x = input;
  if (tape != nullptr) {
    tape->clear();
    tape->layers.reserve(layers_.size());
  }
  for (auto& layer : layers_) {
    x = layer->forward(x, training);
    if (tape != nullptr) tape->layers.push_back(x);
  }
  return x;
}

Tensor Sequential::forward_prefix(const Tensor& input,
                                  std::size_t layer_count) {
  OPAD_EXPECTS(layer_count <= layers_.size());
  OPAD_EXPECTS(input.rank() == 2 && input.dim(1) == input_dim_);
  Tensor x = input;
  for (std::size_t i = 0; i < layer_count; ++i) {
    x = layers_[i]->forward(x, /*training=*/false);
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  return backward_pass(grad_output, /*input_grad=*/true,
                       /*param_grads=*/true);
}

Tensor Sequential::backward_input(const Tensor& grad_output) {
  return backward_pass(grad_output, /*input_grad=*/true,
                       /*param_grads=*/false);
}

void Sequential::backward_params(const Tensor& grad_output) {
  backward_pass(grad_output, /*input_grad=*/false, /*param_grads=*/true);
}

Tensor Sequential::backward_pass(const Tensor& grad_output, bool input_grad,
                                 bool param_grads) {
  OPAD_EXPECTS(grad_output.rank() == 2 && grad_output.dim(1) == output_dim_);
  Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Layer& layer = *layers_[i];
    if (!param_grads) {
      g = layer.backward_input(g);
    } else if (input_grad || i > 0) {
      g = layer.backward(g);
    } else {
      layer.backward_params(g);
      return {};
    }
  }
  return g;
}

std::vector<Tensor*> Sequential::parameters() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::gradients() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->gradients()) out.push_back(g);
  }
  return out;
}

void Sequential::zero_gradients() {
  for (auto& layer : layers_) layer->zero_gradients();
}

std::size_t Sequential::parameter_count() {
  std::size_t n = 0;
  for (Tensor* p : parameters()) n += p->size();
  return n;
}

std::vector<std::string> Sequential::layer_names() const {
  std::vector<std::string> names;
  names.reserve(layers_.size());
  for (const auto& layer : layers_) names.push_back(layer->name());
  return names;
}

Classifier::Classifier(Sequential network, std::size_t num_classes)
    : network_(std::move(network)), num_classes_(num_classes) {
  OPAD_EXPECTS(num_classes >= 2);
  OPAD_EXPECTS_MSG(network_.output_dim() == num_classes,
                   "network output dim " << network_.output_dim()
                                         << " != num_classes "
                                         << num_classes);
}

Classifier Classifier::clone() const {
  return Classifier(network_.clone(), num_classes_);
}

std::unique_ptr<ForwardScorer> Classifier::clone_scorer() const {
  return std::make_unique<Classifier>(clone());
}

Tensor Classifier::logits(const Tensor& inputs, ActivationTape* tape) {
  queries_ += inputs.dim(0);
  return network_.forward(inputs, /*training=*/false, tape);
}

Tensor Classifier::probabilities_single(const Tensor& input) {
  OPAD_EXPECTS(input.rank() == 1);
  Tensor batch = input.reshaped({1, input.dim(0)});
  Tensor probs = probabilities(batch);
  return probs.reshaped({num_classes_});
}

std::vector<int> Classifier::predict(const Tensor& inputs) {
  return predict_labels(inputs);
}

int Classifier::predict_single(const Tensor& input) {
  OPAD_EXPECTS(input.rank() == 1);
  Tensor batch = input.reshaped({1, input.dim(0)});
  int label = 0;
  predict_batch(batch, std::span(&label, 1));
  return label;
}

double Classifier::loss(const Tensor& inputs, std::span<const int> labels,
                        std::span<const double> weights) {
  return loss_fn_.loss(logits(inputs), labels, weights);
}

double Classifier::accumulate_gradients(const Tensor& inputs,
                                        std::span<const int> labels,
                                        std::span<const double> weights) {
  queries_ += inputs.dim(0);
  const Tensor out = network_.forward(inputs, /*training=*/true);
  Tensor grad;
  const double loss_value =
      loss_fn_.loss_and_gradient(out, labels, weights, grad);
  network_.backward_params(grad);
  return loss_value;
}

Tensor Classifier::input_gradient(const Tensor& input, int y) {
  OPAD_EXPECTS(input.rank() == 1 && input.dim(0) == input_dim());
  const int labels[1] = {y};
  return input_gradient_batch(input.reshaped({1, input.dim(0)}), labels)
      .reshaped({input.dim(0)});
}

Tensor Classifier::input_gradient_batch(const Tensor& xs,
                                        std::span<const int> ys) {
  OPAD_EXPECTS(xs.rank() == 2 && xs.dim(1) == input_dim());
  OPAD_EXPECTS(ys.size() == xs.dim(0));
  queries_ += xs.dim(0);
  const Tensor out = network_.forward(xs, /*training=*/true);
  return network_.backward_input(loss_fn_.gradient_per_sample(out, ys));
}

}  // namespace opad
