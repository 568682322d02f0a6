#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>

#include <gtest/gtest.h>

#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "test_helpers.h"

namespace opad {
namespace {

using testing::numerical_gradient;

/// Checks layer input gradients against central finite differences of a
/// scalar objective sum(layer(x) * probe).
void check_layer_input_gradient(Layer& layer, std::size_t in_dim,
                                std::size_t out_dim, Rng& rng,
                                float tolerance = 5e-2f) {
  const Tensor x = Tensor::randn({1, in_dim}, rng, 0.0f, 0.5f);
  const Tensor probe = Tensor::randn({1, out_dim}, rng);

  auto objective = [&layer, &probe](const Tensor& flat) {
    Tensor batch = flat.reshaped({1, flat.dim(0)});
    Tensor out = layer.forward(batch, true);
    double total = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      total += static_cast<double>(out.at(i)) * probe.at(i);
    }
    return total;
  };

  const Tensor flat_x = x.reshaped({in_dim});
  const Tensor numeric = numerical_gradient(objective, flat_x);

  layer.zero_gradients();
  layer.forward(x, true);
  const Tensor analytic = layer.backward(probe).reshaped({in_dim});

  for (std::size_t i = 0; i < in_dim; ++i) {
    EXPECT_NEAR(analytic.at(i), numeric.at(i),
                tolerance * (1.0f + std::fabs(numeric.at(i))))
        << "at index " << i;
  }
}

/// Checks a layer's parameter gradients by finite differences.
void check_layer_param_gradients(Layer& layer, std::size_t in_dim,
                                 std::size_t out_dim, Rng& rng,
                                 float tolerance = 5e-2f) {
  const Tensor x = Tensor::randn({2, in_dim}, rng, 0.0f, 0.5f);
  const Tensor probe = Tensor::randn({2, out_dim}, rng);

  auto objective = [&layer, &x, &probe]() {
    Tensor out = layer.forward(x, true);
    double total = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      total += static_cast<double>(out.at(i)) * probe.at(i);
    }
    return total;
  };

  layer.zero_gradients();
  layer.forward(x, true);
  layer.backward(probe);

  const auto params = layer.parameters();
  const auto grads = layer.gradients();
  ASSERT_EQ(params.size(), grads.size());
  const float h = 1e-2f;
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor* param = params[p];
    // Spot-check a handful of coordinates to keep the test fast.
    const std::size_t stride = std::max<std::size_t>(param->size() / 7, 1);
    for (std::size_t i = 0; i < param->size(); i += stride) {
      const float orig = param->at(i);
      param->at(i) = orig + h;
      const double up = objective();
      param->at(i) = orig - h;
      const double down = objective();
      param->at(i) = orig;
      const float numeric = static_cast<float>((up - down) / (2.0 * h));
      EXPECT_NEAR(grads[p]->at(i), numeric,
                  tolerance * (1.0f + std::fabs(numeric)))
          << "param " << p << " index " << i;
    }
  }
}

TEST(Dense, ForwardComputesAffine) {
  Rng rng(1);
  Dense layer(2, 2, rng);
  layer.weight() = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  layer.bias() = Tensor({2}, std::vector<float>{10, 20});
  const Tensor x({1, 2}, std::vector<float>{1, 1});
  const Tensor y = layer.forward(x, false);
  EXPECT_EQ(y(0, 0), 14.0f);  // 1*1 + 1*3 + 10
  EXPECT_EQ(y(0, 1), 26.0f);  // 1*2 + 1*4 + 20
}

TEST(Dense, InputGradientMatchesFiniteDifference) {
  Rng rng(2);
  Dense layer(5, 3, rng);
  check_layer_input_gradient(layer, 5, 3, rng);
}

TEST(Dense, ParameterGradientsMatchFiniteDifference) {
  Rng rng(3);
  Dense layer(4, 3, rng);
  check_layer_param_gradients(layer, 4, 3, rng);
}

TEST(Dense, GradientsAccumulateAcrossCalls) {
  Rng rng(4);
  Dense layer(2, 2, rng);
  const Tensor x = Tensor::randn({1, 2}, rng);
  const Tensor g = Tensor::ones({1, 2});
  layer.zero_gradients();
  layer.forward(x, true);
  layer.backward(g);
  const Tensor once = *layer.gradients()[0];
  layer.forward(x, true);
  layer.backward(g);
  const Tensor twice = *layer.gradients()[0];
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice.at(i), 2.0f * once.at(i), 1e-5f);
  }
}

TEST(Dense, RejectsWrongInputWidth) {
  Rng rng(5);
  Dense layer(3, 2, rng);
  EXPECT_THROW(layer.forward(Tensor({1, 4}), false), PreconditionError);
  EXPECT_THROW(layer.output_dim(4), PreconditionError);
  EXPECT_EQ(layer.output_dim(3), 2u);
}

TEST(ReLU, ForwardZeroesNegatives) {
  ReLU relu;
  const Tensor x({1, 4}, std::vector<float>{-1, 0, 1, 2});
  const Tensor y = relu.forward(x, false);
  EXPECT_EQ(y(0, 0), 0.0f);
  EXPECT_EQ(y(0, 2), 1.0f);
}

TEST(ReLU, BackwardMasksByInputSign) {
  ReLU relu;
  const Tensor x({1, 3}, std::vector<float>{-1, 2, 0});
  relu.forward(x, true);
  const Tensor g = relu.backward(Tensor({1, 3}, std::vector<float>{5, 5, 5}));
  EXPECT_EQ(g(0, 0), 0.0f);
  EXPECT_EQ(g(0, 1), 5.0f);
  EXPECT_EQ(g(0, 2), 0.0f);  // convention: gradient 0 at the kink
}

TEST(ReLU, MaskSelectMatchesScalarFormulaBitwise) {
  // Both passes select through a compare mask four lanes at a time, with
  // a scalar tail. Every element, in the vector body and in the tail, must
  // equal the scalar formulas x > 0 ? x : +0 forward and x <= 0 ? +0 : g
  // backward bit for bit: NaN gives +0 forward and passes its gradient,
  // -0 gives +0 both ways, +-Inf and subnormals keep their sign rules.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float specials[] = {nan,  inf,   -inf, 0.0f, -0.0f,
                            1.5f, -2.5f, tiny, -tiny, -nan};
  constexpr std::size_t kSpecials = std::size(specials);
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  Rng rng(16);
  for (const std::size_t cols : {1u, 3u, 5u, 7u, 13u, 37u}) {
    Tensor x = Tensor::randn({3, cols}, rng);
    Tensor g = Tensor::randn({3, cols}, rng);
    const std::size_t size = x.size();  // 3 * cols: odd, so a tail remains
    for (std::size_t i = 0; i < size; ++i) {
      if (i % 2 == 0) x.at(i) = specials[(i / 2) % kSpecials];
      if (i % 3 == 0) g.at(i) = specials[(i / 3 + 1) % kSpecials];
    }
    x.at(size - 1) = nan;
    g.at(size - 1) = -0.0f;
    if (size > 1) x.at(size - 2) = -0.0f;
    ReLU relu;
    const Tensor y = relu.forward(x, /*training=*/true);
    const Tensor gx = relu.backward(g);
    for (std::size_t i = 0; i < size; ++i) {
      const float xi = x.at(i);
      EXPECT_EQ(bits(y.at(i)), bits(xi > 0.0f ? xi : 0.0f))
          << "forward, " << size << " elements, index " << i << " x=" << xi;
      EXPECT_EQ(bits(gx.at(i)), bits(xi <= 0.0f ? 0.0f : g.at(i)))
          << "backward, " << size << " elements, index " << i << " x=" << xi;
    }
  }
}

TEST(LeakyReLU, KeepsScaledNegatives) {
  LeakyReLU leaky(0.1f);
  const Tensor x({1, 2}, std::vector<float>{-2, 3});
  const Tensor y = leaky.forward(x, false);
  EXPECT_FLOAT_EQ(y(0, 0), -0.2f);
  EXPECT_FLOAT_EQ(y(0, 1), 3.0f);
  const Tensor g = leaky.backward(Tensor::ones({1, 2}));
  EXPECT_FLOAT_EQ(g(0, 0), 0.1f);
  EXPECT_FLOAT_EQ(g(0, 1), 1.0f);
}

TEST(TanhLayer, GradientMatchesFiniteDifference) {
  Rng rng(6);
  Tanh layer;
  check_layer_input_gradient(layer, 6, 6, rng);
}

TEST(SigmoidLayer, GradientMatchesFiniteDifference) {
  Rng rng(7);
  Sigmoid layer;
  check_layer_input_gradient(layer, 6, 6, rng);
}

TEST(Conv2D, OutputGeometry) {
  Rng rng(8);
  Conv2D conv({1, 8, 8}, 4, 3, 1, 1, rng);
  EXPECT_EQ(conv.output_geometry().channels, 4u);
  EXPECT_EQ(conv.output_geometry().height, 8u);
  EXPECT_EQ(conv.output_geometry().width, 8u);
  EXPECT_EQ(conv.output_dim(64), 256u);
}

TEST(Conv2D, ForwardMatchesManualConvolution) {
  Rng rng(9);
  Conv2D conv({1, 3, 3}, 1, 2, 1, 0, rng);
  // Set kernel to a known value: [[1, 0], [0, 1]] (trace window), bias 1.
  conv.parameters()[0]->data()[0] = 1.0f;
  conv.parameters()[0]->data()[1] = 0.0f;
  conv.parameters()[0]->data()[2] = 0.0f;
  conv.parameters()[0]->data()[3] = 1.0f;
  conv.parameters()[1]->data()[0] = 1.0f;
  const Tensor x({1, 9}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 4}));
  EXPECT_EQ(y(0, 0), 1.0f + 5.0f + 1.0f);  // x(0,0) + x(1,1) + bias
  EXPECT_EQ(y(0, 3), 5.0f + 9.0f + 1.0f);
}

TEST(Conv2D, InputGradientMatchesFiniteDifference) {
  Rng rng(10);
  Conv2D conv({1, 4, 4}, 2, 3, 1, 1, rng);
  check_layer_input_gradient(conv, 16, 32, rng);
}

TEST(Conv2D, ParameterGradientsMatchFiniteDifference) {
  Rng rng(11);
  Conv2D conv({2, 4, 4}, 2, 3, 1, 0, rng);
  check_layer_param_gradients(conv, 32, 8, rng);
}

TEST(MaxPool2D, ForwardPicksMaxima) {
  MaxPool2D pool({1, 4, 4}, 2);
  Tensor x({1, 16});
  for (std::size_t i = 0; i < 16; ++i) x(0, i) = static_cast<float>(i);
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 4}));
  EXPECT_EQ(y(0, 0), 5.0f);
  EXPECT_EQ(y(0, 1), 7.0f);
  EXPECT_EQ(y(0, 2), 13.0f);
  EXPECT_EQ(y(0, 3), 15.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D pool({1, 2, 2}, 2);
  const Tensor x({1, 4}, std::vector<float>{1, 9, 3, 4});
  pool.forward(x, true);
  const Tensor g = pool.backward(Tensor({1, 1}, std::vector<float>{7}));
  EXPECT_EQ(g(0, 0), 0.0f);
  EXPECT_EQ(g(0, 1), 7.0f);
  EXPECT_EQ(g(0, 3), 0.0f);
}

TEST(MaxPool2D, RequiresDivisibleWindow) {
  EXPECT_THROW(MaxPool2D({1, 5, 5}, 2), PreconditionError);
}

TEST(SoftmaxCrossEntropy, LossOfUniformLogitsIsLogK) {
  SoftmaxCrossEntropy loss;
  const Tensor logits({2, 4});
  const std::vector<int> labels = {0, 3};
  EXPECT_NEAR(loss.loss(logits, labels), std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference) {
  Rng rng(12);
  SoftmaxCrossEntropy loss;
  const Tensor logits = Tensor::randn({3, 5}, rng);
  const std::vector<int> labels = {1, 4, 0};
  Tensor grad;
  loss.loss_and_gradient(logits, labels, {}, grad);
  const float h = 1e-2f;
  Tensor probe = logits;
  for (std::size_t i = 0; i < logits.size(); i += 3) {
    const float orig = probe.at(i);
    probe.at(i) = orig + h;
    const double up = loss.loss(probe, labels);
    probe.at(i) = orig - h;
    const double down = loss.loss(probe, labels);
    probe.at(i) = orig;
    EXPECT_NEAR(grad.at(i), (up - down) / (2.0 * h), 5e-3);
  }
}

TEST(SoftmaxCrossEntropy, WeightsScaleSampleContributions) {
  SoftmaxCrossEntropy loss;
  Rng rng(13);
  const Tensor logits = Tensor::randn({2, 3}, rng);
  const std::vector<int> labels = {0, 2};
  // Weight the first sample 2x and the second 0: loss should equal the
  // first sample's per-sample loss (weights normalised to sum to n).
  const std::vector<double> weights = {2.0, 0.0};
  const auto per_sample = loss.per_sample_loss(logits, labels);
  EXPECT_NEAR(loss.loss(logits, labels, weights), per_sample[0], 1e-6);
}

TEST(SoftmaxCrossEntropy, PerSampleMatchesMean) {
  SoftmaxCrossEntropy loss;
  Rng rng(14);
  const Tensor logits = Tensor::randn({4, 3}, rng);
  const std::vector<int> labels = {0, 1, 2, 1};
  const auto per_sample = loss.per_sample_loss(logits, labels);
  double total = 0.0;
  for (double v : per_sample) total += v;
  EXPECT_NEAR(loss.loss(logits, labels), total / 4.0, 1e-6);
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  SoftmaxCrossEntropy loss;
  const Tensor logits({1, 3});
  const std::vector<int> bad = {3};
  EXPECT_THROW(loss.loss(logits, bad), PreconditionError);
}

TEST(MeanSquaredError, LossAndGradient) {
  MeanSquaredError mse;
  const Tensor pred({1, 2}, std::vector<float>{1, 3});
  const Tensor target({1, 2}, std::vector<float>{0, 1});
  EXPECT_NEAR(mse.loss(pred, target), (1.0 + 4.0) / 2.0, 1e-6);
  const Tensor grad = mse.gradient(pred, target);
  EXPECT_FLOAT_EQ(grad(0, 0), 1.0f);   // 2 * 1 / 2
  EXPECT_FLOAT_EQ(grad(0, 1), 2.0f);   // 2 * 2 / 2
}

TEST(MeanSquaredError, PerRowLoss) {
  MeanSquaredError mse;
  const Tensor pred({2, 2}, std::vector<float>{1, 1, 0, 0});
  const Tensor target({2, 2}, std::vector<float>{0, 0, 0, 0});
  const auto rows = mse.per_row_loss(pred, target);
  EXPECT_NEAR(rows[0], 1.0, 1e-9);
  EXPECT_NEAR(rows[1], 0.0, 1e-9);
}

}  // namespace
}  // namespace opad
