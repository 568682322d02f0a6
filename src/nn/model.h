// Sequential model container and the Classifier facade the rest of the
// library programs against. The Classifier exposes exactly what the
// operational-testing pipeline needs: class probabilities, predictions,
// training gradients, and — crucially for the attack substrate — the
// gradient of the loss with respect to the *input*.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/loss.h"

namespace opad {

/// Caller-provided recorder of per-layer forward outputs. Passing a tape
/// to forward() appends a copy of every layer's output batch ([n, d_l]
/// for layer l, in layer order, the final entry being the network
/// output). Hidden-activation detectors (LID) read their features from
/// here. The hook is zero-cost when no tape is supplied — one pointer
/// check per layer — and recording never perturbs the forward numerics:
/// outputs are copied after they are computed (test-pinned bitwise).
struct ActivationTape {
  std::vector<Tensor> layers;

  void clear() { layers.clear(); }
  std::size_t layer_count() const { return layers.size(); }
};

/// Minimal polymorphic forward-pass interface: everything a consumer
/// that only *queries* a model needs (logits, probabilities, argmax
/// labels, query accounting), with none of the training surface.
/// Classifier implements it; the serving layer holds its model behind
/// this interface, so a wrapper (e.g. a timing decorator around a
/// Classifier) can stand in wherever inference is all that is asked.
class ForwardScorer {
 public:
  virtual ~ForwardScorer() = default;

  virtual std::size_t input_dim() const = 0;
  virtual std::size_t num_classes() const = 0;

  /// Raw logits for a batch [n, d] -> [n, k], costing n queries. A
  /// non-null `tape` records per-layer activations (see ActivationTape).
  virtual Tensor logits(const Tensor& inputs, ActivationTape* tape = nullptr) = 0;

  /// Softmax probabilities for a batch.
  Tensor probabilities(const Tensor& inputs);

  /// Predicted labels for a batch [n, d], written into `labels` (size
  /// n). One forward pass for the whole batch; argmax takes the first
  /// maximum on ties, matching Tensor::argmax.
  void predict_batch(const Tensor& inputs, std::span<int> labels);

  /// Allocating convenience over predict_batch().
  std::vector<int> predict_labels(const Tensor& inputs);

  /// Forward passes served so far (one batch row = one query), and the
  /// fold-in hook parallel workers use to keep global budget arithmetic
  /// equal to a sequential run.
  virtual std::uint64_t query_count() const = 0;
  virtual void reset_query_count() = 0;
  virtual void add_queries(std::uint64_t n) = 0;

  /// Deep copy behind the interface; replicas share no mutable state,
  /// so each thread can score on its own copy.
  virtual std::unique_ptr<ForwardScorer> clone_scorer() const = 0;

  /// Numeric format of the forward pass ("float32" for Classifier).
  virtual const char* precision() const = 0;

 protected:
  ForwardScorer() = default;
  ForwardScorer(const ForwardScorer&) = default;
  ForwardScorer& operator=(const ForwardScorer&) = default;
};

/// An ordered stack of layers with reverse-mode differentiation.
class Sequential {
 public:
  /// Creates an empty model for `input_dim` features.
  explicit Sequential(std::size_t input_dim);

  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer; validates feature-count chaining.
  void add(LayerPtr layer);

  /// Deep copy (layer-by-layer clone). Replicas let parallel workers run
  /// forward/backward passes without racing on this model's layer caches.
  Sequential clone() const;

  /// Convenience: emplace a layer type directly.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return output_dim_; }
  std::size_t layer_count() const { return layers_.size(); }

  /// Forward pass over a [n, input_dim] batch. A non-null `tape` records
  /// every layer's output (see ActivationTape); the computed result is
  /// bitwise independent of whether a tape is attached.
  Tensor forward(const Tensor& input, bool training = false,
                 ActivationTape* tape = nullptr);

  /// Forward pass through only the first `layer_count` layers (inference
  /// mode). Used to read out intermediate representations, e.g. the
  /// encoder half of an autoencoder.
  Tensor forward_prefix(const Tensor& input, std::size_t layer_count);

  /// Backward pass; returns gradient w.r.t. the input batch and
  /// accumulates every layer's parameter gradients.
  Tensor backward(const Tensor& grad_output);

  /// Input-only backward pass (Layer::backward_input through every
  /// layer): the same input gradient, bit for bit, with parameter
  /// gradients neither computed nor touched.
  Tensor backward_input(const Tensor& grad_output);

  /// Parameter-only backward pass: backward()'s parameter gradients, bit
  /// for bit, without the gradient w.r.t. the input batch, which no
  /// training step reads (the first layer runs Layer::backward_params).
  void backward_params(const Tensor& grad_output);

  /// All trainable parameters / their gradients, flattened across layers.
  std::vector<Tensor*> parameters();
  std::vector<Tensor*> gradients();
  void zero_gradients();
  std::size_t parameter_count();

  /// Layer descriptions, e.g. for logging the architecture.
  std::vector<std::string> layer_names() const;

 private:
  Tensor backward_pass(const Tensor& grad_output, bool input_grad,
                       bool param_grads);

  std::size_t input_dim_;
  std::size_t output_dim_;
  std::vector<LayerPtr> layers_;
};

/// A classification model: Sequential network + softmax cross-entropy.
///
/// This is the model type the operational testing pipeline (and every
/// attack) operates on. All query-counting in the experiments is done at
/// this interface.
class Classifier : public ForwardScorer {
 public:
  Classifier(Sequential network, std::size_t num_classes);

  std::size_t input_dim() const override { return network_.input_dim(); }
  std::size_t num_classes() const override { return num_classes_; }
  Sequential& network() { return network_; }
  const Sequential& network() const { return network_; }

  /// Raw logits for a batch [n, d] -> [n, k]. A non-null `tape` records
  /// per-layer activations (the detector-facing capture hook); logits are
  /// bitwise identical with and without a tape, and the pass costs the
  /// same n queries either way. (predict_batch / predict_labels /
  /// probabilities are inherited from ForwardScorer and route through
  /// this — one forward pass for the whole batch, bit-identical to
  /// calling predict_single() row by row because every logit row is
  /// computed independently inside the GEMM.)
  Tensor logits(const Tensor& inputs, ActivationTape* tape = nullptr) override;

  /// Probabilities for a single flat input [d] -> [k].
  Tensor probabilities_single(const Tensor& input);

  /// Deprecated spelling of predict_labels(); prefer the batched names
  /// in ForwardScorer in new code.
  std::vector<int> predict(const Tensor& inputs);

  /// Predicted label for a single flat input [d]. Deprecated whenever a
  /// batch is available: each call pays a full forward-pass dispatch for
  /// one row — assemble an [n, d] tensor and use predict_batch() instead.
  int predict_single(const Tensor& input);

  /// Mean loss of a labelled batch (optionally importance-weighted).
  double loss(const Tensor& inputs, std::span<const int> labels,
              std::span<const double> weights = {});

  /// Runs forward+backward and accumulates parameter gradients for a
  /// labelled batch; returns the mean loss. Callers own zeroing grads.
  /// The gradients equal those of forward() plus the full backward(), bit
  /// for bit; the input gradient, which nothing here reads, is skipped
  /// (Sequential::backward_params).
  double accumulate_gradients(const Tensor& inputs,
                              std::span<const int> labels,
                              std::span<const double> weights = {});

  /// Gradient of the cross-entropy loss w.r.t. a single input [d],
  /// evaluated at label `y`: input_gradient_batch() on a one-row view.
  /// This is the attack substrate's entry point.
  Tensor input_gradient(const Tensor& input, int y);

  /// Batched form: gradient of the per-sample (unscaled) cross-entropy
  /// w.r.t. each row of `xs` [B, d] at labels `ys` [B], in one forward +
  /// one input-only backward pass (Sequential::backward_input), so
  /// parameter gradients are neither computed nor touched: gradients
  /// accumulated before the call survive it unchanged. Row b is bitwise
  /// equal to input_gradient(xs.row(b), ys[b]): every GEMM output element
  /// is accumulated with a fixed k-ascending association regardless of
  /// batch size, and the per-sample loss gradient carries no 1/B scale.
  /// Costs B queries, exactly like B single calls.
  Tensor input_gradient_batch(const Tensor& xs, std::span<const int> ys);

  /// Number of forward passes served so far (query counter used by the
  /// testing-budget accounting in the experiments; one batch row = one
  /// query).
  std::uint64_t query_count() const override { return queries_; }
  void reset_query_count() override { queries_ = 0; }

  /// Folds externally accounted queries (e.g. those a worker replica spent
  /// attacking seeds in parallel) into this model's counter so the global
  /// budget arithmetic matches a sequential run exactly.
  void add_queries(std::uint64_t n) override { queries_ += n; }

  /// Deep copy with a fresh query counter. A replica shares no mutable
  /// state with the original, so each parallel worker can attack its own
  /// copy; parameters are equal, so per-seed results are identical to
  /// attacking the original.
  Classifier clone() const;
  std::unique_ptr<ForwardScorer> clone_scorer() const override;

  const char* precision() const override { return "float32"; }

 private:
  Sequential network_;
  std::size_t num_classes_;
  SoftmaxCrossEntropy loss_fn_;
  std::uint64_t queries_ = 0;
};

}  // namespace opad
