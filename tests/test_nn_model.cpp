#include "nn/model.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"

namespace opad {
namespace {

TEST(Sequential, ValidatesLayerChaining) {
  Rng rng(1);
  Sequential net(4);
  net.emplace<Dense>(4, 8, rng);
  net.emplace<ReLU>();
  EXPECT_EQ(net.output_dim(), 8u);
  // A mismatched layer must be rejected.
  EXPECT_THROW(net.emplace<Dense>(7, 2, rng), PreconditionError);
  net.emplace<Dense>(8, 2, rng);
  EXPECT_EQ(net.output_dim(), 2u);
  EXPECT_EQ(net.layer_count(), 3u);
}

TEST(Sequential, ForwardShapeAndInputValidation) {
  Rng rng(2);
  Sequential net(3);
  net.emplace<Dense>(3, 5, rng);
  const Tensor out = net.forward(Tensor({2, 3}), false);
  EXPECT_EQ(out.shape(), (Shape{2, 5}));
  EXPECT_THROW(net.forward(Tensor({2, 4}), false), PreconditionError);
}

TEST(Sequential, ParameterCountIsCorrect) {
  Rng rng(3);
  Sequential net(4);
  net.emplace<Dense>(4, 10, rng);  // 40 + 10
  net.emplace<ReLU>();
  net.emplace<Dense>(10, 3, rng);  // 30 + 3
  EXPECT_EQ(net.parameter_count(), 83u);
  EXPECT_EQ(net.parameters().size(), 4u);
  EXPECT_EQ(net.gradients().size(), 4u);
}

TEST(Sequential, ForwardPrefixRunsSubset) {
  Rng rng(4);
  Sequential net(2);
  auto& first = net.emplace<Dense>(2, 3, rng);
  net.emplace<Dense>(3, 2, rng);
  const Tensor x = Tensor::randn({1, 2}, rng);
  const Tensor after_first = net.forward_prefix(x, 1);
  EXPECT_EQ(after_first.shape(), (Shape{1, 3}));
  // Must agree with calling the layer directly.
  const Tensor direct = first.forward(x, false);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_FLOAT_EQ(after_first.at(i), direct.at(i));
  }
  EXPECT_THROW(net.forward_prefix(x, 3), PreconditionError);
}

TEST(Sequential, LayerNamesDescribeArchitecture) {
  Rng rng(5);
  Sequential net(2);
  net.emplace<Dense>(2, 4, rng);
  net.emplace<ReLU>();
  const auto names = net.layer_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "Dense(2->4)");
  EXPECT_EQ(names[1], "ReLU");
}

TEST(Classifier, RejectsOutputMismatch) {
  Rng rng(6);
  Sequential net(2);
  net.emplace<Dense>(2, 5, rng);
  EXPECT_THROW(Classifier(std::move(net), 3), PreconditionError);
}

TEST(Classifier, ProbabilitiesAreDistributions) {
  Rng rng(7);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  const Tensor x = Tensor::randn({5, 4}, rng);
  const Tensor probs = model.probabilities(x);
  ASSERT_EQ(probs.shape(), (Shape{5, 3}));
  for (std::size_t i = 0; i < 5; ++i) {
    float total = 0.0f;
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(probs(i, j), 0.0f);
      total += probs(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Classifier, PredictMatchesArgmaxOfProbabilities) {
  Rng rng(8);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  const Tensor x = Tensor::randn({10, 4}, rng);
  const auto preds = model.predict(x);
  const Tensor probs = model.probabilities(x);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(preds[i]), probs.row(i).argmax());
  }
}

TEST(Classifier, SingleInputHelpersAgreeWithBatch) {
  Rng rng(9);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  const Tensor x = Tensor::randn({4}, rng);
  const int single = model.predict_single(x);
  const auto batch = model.predict(x.reshaped({1, 4}));
  EXPECT_EQ(single, batch[0]);
  const Tensor p = model.probabilities_single(x);
  EXPECT_EQ(p.shape(), (Shape{3}));
  EXPECT_NEAR(p.sum(), 1.0f, 1e-5f);
}

TEST(Classifier, PredictBatchBitIdenticalToRowByRowPredict) {
  // The batched-inference contract: the packed GEMM computes every logit
  // row with the same fixed association regardless of batch size, so one
  // predict_batch over [n, d] equals n predict_single calls exactly.
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    Classifier model = testing::make_mlp(6, 10, 4, rng);
    const Tensor x = Tensor::randn({33, 6}, rng);
    std::vector<int> batched(x.dim(0));
    model.predict_batch(x, batched);
    const auto allocated = model.predict_labels(x);
    EXPECT_EQ(batched, allocated);
    for (std::size_t i = 0; i < x.dim(0); ++i) {
      EXPECT_EQ(batched[i], model.predict_single(x.row(i)))
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(Classifier, InputGradientBatchBitIdenticalToRowByRow) {
  // The batched-gradient contract mirrors predict_batch's: one forward +
  // one backward over [B, d] yields input-gradient rows bitwise equal to
  // per-row input_gradient — the per-sample loss gradient carries no 1/B
  // scale (the single-row scale factor is exactly 1.0f) and the packed
  // GEMM accumulates every output element in a fixed k-ascending order
  // regardless of batch size.
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    Classifier model = testing::make_mlp(6, 10, 4, rng);
    const Tensor x = Tensor::randn({17, 6}, rng);
    std::vector<int> ys(x.dim(0));
    for (std::size_t i = 0; i < ys.size(); ++i) {
      ys[i] = static_cast<int>(i % model.num_classes());
    }
    model.reset_query_count();
    const Tensor batched = model.input_gradient_batch(x, ys);
    EXPECT_EQ(model.query_count(), x.dim(0));  // one query per row
    ASSERT_EQ(batched.shape(), (Shape{17, 6}));
    // Parameter gradients are never touched: a fresh model's stay zero.
    for (Tensor* g : model.network().gradients()) {
      for (float v : g->data()) ASSERT_EQ(v, 0.0f);
    }
    for (std::size_t i = 0; i < x.dim(0); ++i) {
      const Tensor single = model.input_gradient(x.row(i), ys[i]);
      ASSERT_EQ(single.size(), batched.dim(1));
      EXPECT_EQ(std::memcmp(batched.row_span(i).data(),
                            single.data().data(),
                            single.size() * sizeof(float)),
                0)
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(Classifier, InputGradientBatchValidatesArgs) {
  Rng rng(24);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  const Tensor x = Tensor::randn({3, 4}, rng);
  std::vector<int> too_few(2, 0);
  EXPECT_THROW(model.input_gradient_batch(x, too_few), PreconditionError);
  std::vector<int> bad_label = {0, 1, 7};
  EXPECT_THROW(model.input_gradient_batch(x, bad_label), PreconditionError);
}

TEST(Classifier, PredictBatchValidatesSpanSize) {
  Rng rng(22);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  const Tensor x = Tensor::randn({3, 4}, rng);
  std::vector<int> too_small(2);
  EXPECT_THROW(model.predict_batch(x, too_small), PreconditionError);
}

TEST(Classifier, QueryCountTracksRows) {
  Rng rng(10);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  model.reset_query_count();
  model.predict(Tensor::randn({7, 4}, rng));
  EXPECT_EQ(model.query_count(), 7u);
  model.predict_single(Tensor::randn({4}, rng));
  EXPECT_EQ(model.query_count(), 8u);
  model.input_gradient(Tensor::randn({4}, rng), 0);
  EXPECT_EQ(model.query_count(), 9u);
}

TEST(Classifier, ScorerInterfaceCloneQueriesAndTape) {
  // The ForwardScorer surface the service and its decorators hold a
  // Classifier through: the tape ends in the logits, predict_batch is
  // their argmax, and clone_scorer() is an independent, bitwise-equal
  // replica with its own query counter.
  Rng rng(59);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  const Tensor inputs = Tensor::randn({5, 4}, rng);

  ActivationTape tape;
  const Tensor logits = model.logits(inputs, &tape);
  EXPECT_EQ(model.query_count(), 5u);
  ASSERT_EQ(tape.layer_count(), model.network().layer_count());
  EXPECT_EQ(tape.layers.back().shape(), logits.shape());
  EXPECT_EQ(std::memcmp(tape.layers.back().data().data(),
                        logits.data().data(), logits.size() * sizeof(float)),
            0);

  std::vector<int> labels(5);
  model.predict_batch(inputs, labels);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(labels[i]), logits.row(i).argmax())
        << "row " << i;
  }

  const std::unique_ptr<ForwardScorer> scorer = model.clone_scorer();
  EXPECT_STREQ(scorer->precision(), "float32");
  EXPECT_EQ(scorer->query_count(), 0u);
  const Tensor cloned = scorer->logits(inputs);
  EXPECT_EQ(std::memcmp(cloned.data().data(), logits.data().data(),
                        logits.size() * sizeof(float)),
            0);
  EXPECT_EQ(scorer->query_count(), 5u);
  EXPECT_EQ(model.query_count(), 10u);  // logits + predict_batch
}

TEST(Classifier, InputGradientMatchesFiniteDifference) {
  Rng rng(11);
  Classifier model = testing::make_mlp(6, 12, 3, rng);
  const Tensor x = Tensor::randn({6}, rng, 0.0f, 0.5f);
  const int label = 1;
  const Tensor analytic = model.input_gradient(x, label);

  auto objective = [&model, label](const Tensor& probe) {
    const std::vector<int> labels = {label};
    Tensor batch = probe.reshaped({1, probe.dim(0)});
    return model.loss(batch, labels);
  };
  const Tensor numeric = testing::numerical_gradient(objective, x);
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    EXPECT_NEAR(analytic.at(i), numeric.at(i),
                5e-2f * (1.0f + std::fabs(numeric.at(i))))
        << "index " << i;
  }
}

/// 1x6x6 images -> Conv2D(3 ch, 3x3, pad 1) -> ReLU -> MaxPool 2 -> Dense.
Classifier make_small_cnn(Rng& rng) {
  Sequential net(36);
  auto& conv = net.emplace<Conv2D>(ImageGeometry{1, 6, 6}, 3, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2D>(conv.output_geometry(), 2);
  net.emplace<Dense>(3 * 3 * 3, 4, rng);
  return Classifier(std::move(net), 4);
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Classifier, InputGradientsEqualFullBackwardInputGradient) {
  // The input-only backward skips the parameter half of every layer; the
  // input gradient it returns must still be the full backward's, bit for
  // bit, through Dense and through Conv2D + MaxPool2D.
  Rng rng(14);
  std::vector<Classifier> models;
  models.push_back(testing::make_mlp(36, 16, 4, rng));
  models.push_back(make_small_cnn(rng));
  for (Classifier& model : models) {
    const Tensor x = Tensor::randn({7, 36}, rng);
    const std::vector<int> ys = {0, 1, 2, 3, 0, 1, 2};
    const Tensor out = model.network().forward(x, /*training=*/true);
    const Tensor full = model.network().backward(
        SoftmaxCrossEntropy{}.gradient_per_sample(out, ys));
    const Tensor batched = model.input_gradient_batch(x, ys);
    EXPECT_TRUE(bitwise_equal(full.data(), batched.data()));
    for (std::size_t i = 0; i < x.dim(0); ++i) {
      EXPECT_TRUE(bitwise_equal(full.row_span(i),
                                model.input_gradient(x.row(i), ys[i]).data()))
          << model.network().layer_names().front() << " row " << i;
    }
  }
}

TEST(Classifier, InputGradientLeavesParamGradientsZero) {
  Rng rng(12);
  std::vector<Classifier> models;
  models.push_back(testing::make_mlp(36, 8, 4, rng));
  models.push_back(make_small_cnn(rng));
  for (Classifier& model : models) {
    // A fresh model's zero gradients stay zero.
    model.input_gradient(Tensor::randn({36}, rng), 2);
    for (Tensor* g : model.network().gradients()) {
      for (std::size_t i = 0; i < g->size(); ++i) {
        ASSERT_EQ(g->at(i), 0.0f);
      }
    }
    // Gradients a training step accumulated survive attack calls bitwise.
    const Tensor batch = Tensor::randn({5, 36}, rng);
    const std::vector<int> labels = {0, 1, 2, 3, 1};
    model.accumulate_gradients(batch, labels);
    std::vector<Tensor> accumulated;
    for (Tensor* g : model.network().gradients()) accumulated.push_back(*g);
    model.input_gradient(Tensor::randn({36}, rng), 1);
    model.input_gradient_batch(batch, labels);
    const auto grads = model.network().gradients();
    ASSERT_EQ(grads.size(), accumulated.size());
    for (std::size_t i = 0; i < grads.size(); ++i) {
      EXPECT_GT(accumulated[i].l2_norm(), 0.0) << "gradient " << i;
      EXPECT_TRUE(bitwise_equal(grads[i]->data(), accumulated[i].data()))
          << model.network().layer_names().front() << " gradient " << i;
    }
  }
}

TEST(Classifier, AccumulateGradientsPopulatesParamGrads) {
  Rng rng(13);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  model.network().zero_gradients();
  const Tensor x = Tensor::randn({8, 4}, rng);
  const std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1};
  const double loss = model.accumulate_gradients(x, labels);
  EXPECT_GT(loss, 0.0);
  double grad_norm = 0.0;
  for (Tensor* g : model.network().gradients()) {
    grad_norm += g->l2_norm();
  }
  EXPECT_GT(grad_norm, 0.0);
}

TEST(Classifier, AccumulateGradientsEqualFullBackward) {
  // accumulate_gradients computes the loss and its gradient in one pass
  // and skips the first layer's input gradient. Its loss and parameter
  // gradients must still equal those of the composition it replaces, bit
  // for bit: forward, loss(), the softmax_rows gradient scaled by
  // w_i / n, and the full backward(). With and without sample weights,
  // through Dense and through Conv2D + MaxPool2D.
  Rng rng(15);
  std::vector<Classifier> models;
  models.push_back(testing::make_mlp(36, 16, 4, rng));
  models.push_back(make_small_cnn(rng));
  const std::vector<int> ys = {0, 1, 2, 3, 0, 1, 2};
  const std::vector<double> weights = {0.5, 2.0, 1.0, 0.0, 3.0, 1.5, 0.25};
  const std::size_t n = ys.size();
  for (Classifier& model : models) {
    Sequential& net = model.network();
    for (const bool weighted : {false, true}) {
      const std::span<const double> w =
          weighted ? std::span<const double>(weights)
                   : std::span<const double>();
      const Tensor x = Tensor::randn({n, 36}, rng);
      net.zero_gradients();
      const Tensor out = net.forward(x, /*training=*/true);
      const double want_loss = SoftmaxCrossEntropy{}.loss(out, ys, w);
      double total = 0.0;
      for (double v : weights) total += v;
      Tensor grad = softmax_rows(out);
      for (std::size_t i = 0; i < n; ++i) {
        grad(i, static_cast<std::size_t>(ys[i])) -= 1.0f;
        const double wi =
            weighted ? weights[i] * (static_cast<double>(n) / total) : 1.0;
        const float scale =
            static_cast<float>(wi) * (1.0f / static_cast<float>(n));
        for (float& v : grad.row_span(i)) v *= scale;
      }
      net.backward(grad);
      std::vector<Tensor> want;
      for (Tensor* g : net.gradients()) want.push_back(*g);

      net.zero_gradients();
      const double loss = model.accumulate_gradients(x, ys, w);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loss),
                std::bit_cast<std::uint64_t>(want_loss))
          << loss << " vs " << want_loss;
      const auto got = net.gradients();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_GT(want[i].l2_norm(), 0.0f) << "gradient " << i;
        EXPECT_TRUE(bitwise_equal(got[i]->data(), want[i].data()))
            << net.layer_names().front() << " weighted " << weighted
            << " gradient " << i;
      }
    }
  }
}

}  // namespace
}  // namespace opad
