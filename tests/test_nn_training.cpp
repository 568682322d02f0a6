#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "nn/metrics.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "test_helpers.h"

namespace opad {
namespace {

TEST(Sgd, MinimisesQuadratic) {
  // One parameter tensor, objective f(w) = sum w^2; gradient 2w.
  Tensor w({4}, std::vector<float>{1, -2, 3, -4});
  Tensor g({4});
  Sgd opt({&w}, {&g}, 0.1);
  for (int step = 0; step < 200; ++step) {
    for (std::size_t i = 0; i < 4; ++i) g.at(i) = 2.0f * w.at(i);
    opt.step();
  }
  EXPECT_LT(w.l2_norm(), 1e-4f);
}

TEST(Sgd, MomentumAcceleratesAlongConsistentGradients) {
  Tensor w_plain({1}, std::vector<float>{10.0f});
  Tensor g_plain({1});
  Tensor w_mom({1}, std::vector<float>{10.0f});
  Tensor g_mom({1});
  Sgd plain({&w_plain}, {&g_plain}, 0.01);
  Sgd momentum({&w_mom}, {&g_mom}, 0.01, 0.9);
  for (int step = 0; step < 30; ++step) {
    g_plain.at(0) = 1.0f;  // constant slope
    g_mom.at(0) = 1.0f;
    plain.step();
    momentum.step();
  }
  EXPECT_LT(w_mom.at(0), w_plain.at(0));
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Tensor w({1}, std::vector<float>{1.0f});
  Tensor g({1});
  Sgd opt({&w}, {&g}, 0.1, 0.0, 0.5);
  g.at(0) = 0.0f;
  opt.step();
  EXPECT_NEAR(w.at(0), 1.0f - 0.1f * 0.5f, 1e-6f);
}

/// One operation of the scalar SGD update, rounded to float on its own:
/// the volatile round trip keeps a build with FP contraction from fusing a
/// multiply into the following add, as the optimizer's own TU does.
float rounded(float v) {
  volatile float r = v;
  return r;
}

TEST(Sgd, VectorisedStepEqualsScalarLoopBitwise) {
  // Sgd::step runs four parameters per instruction with a scalar tail.
  // On every size from 1 to 37, with and without momentum and weight
  // decay, and with NaN, +-Inf and -0 among the gradients, three steps
  // must leave parameters equal to the scalar loop's bit for bit. The
  // weight-decay term matters even at 0: -0 + 0 * p is +0, not -0.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {nan, inf, -inf, -0.0f, 0.0f};
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  const float lr = 0.05f;
  Rng rng(17);
  for (const double momentum : {0.0, 0.9}) {
    for (const double decay : {0.0, 1e-3}) {
      for (std::size_t size = 1; size <= 37; ++size) {
        Tensor w = Tensor::randn({size}, rng);
        Tensor g = Tensor::randn({size}, rng);
        for (std::size_t i = 0; i < size; i += 3) {
          g.at(i) = specials[(i / 3) % std::size(specials)];
        }
        std::vector<float> p(w.data().begin(), w.data().end());
        std::vector<float> v(size, 0.0f);
        Sgd opt({&w}, {&g}, lr, momentum, decay);
        const auto mu = static_cast<float>(momentum);
        const auto wd = static_cast<float>(decay);
        for (int step = 0; step < 3; ++step) {
          opt.step();
          for (std::size_t j = 0; j < size; ++j) {
            const float grad = rounded(g.at(j) + rounded(wd * p[j]));
            if (momentum > 0.0) {
              v[j] = rounded(rounded(mu * v[j]) + grad);
              p[j] = rounded(p[j] - rounded(lr * v[j]));
            } else {
              p[j] = rounded(p[j] - rounded(lr * grad));
            }
          }
          for (std::size_t j = 0; j < size; ++j) {
            ASSERT_EQ(bits(w.at(j)), bits(p[j]))
                << "size " << size << " momentum " << momentum << " decay "
                << decay << " step " << step << " index " << j;
          }
        }
      }
    }
  }
}

TEST(Adam, MinimisesQuadratic) {
  Tensor w({3}, std::vector<float>{5, -5, 2});
  Tensor g({3});
  Adam opt({&w}, {&g}, 0.1);
  for (int step = 0; step < 500; ++step) {
    for (std::size_t i = 0; i < 3; ++i) g.at(i) = 2.0f * w.at(i);
    opt.step();
  }
  EXPECT_LT(w.l2_norm(), 1e-3f);
}

TEST(Optimizer, RejectsMismatchedLists) {
  Tensor w({2});
  Tensor g({3});
  EXPECT_THROW(Sgd({&w}, {&g}, 0.1), PreconditionError);
  Tensor g2({2});
  EXPECT_THROW(Sgd({&w}, {&g2, &g2}, 0.1), PreconditionError);
}

TEST(Optimizer, RejectsBadHyperparameters) {
  Tensor w({1});
  Tensor g({1});
  EXPECT_THROW(Sgd({&w}, {&g}, -0.1), PreconditionError);
  EXPECT_THROW(Sgd({&w}, {&g}, 0.1, 1.0), PreconditionError);
  EXPECT_THROW(Adam({&w}, {&g}, 0.1, 0.9, 1.0), PreconditionError);
}

TEST(Trainer, LearnsRingTask) {
  auto task = testing::make_ring_task(600, 300, 42);
  Rng rng(43);
  Classifier model = testing::train_mlp(task.train, 24, 25, rng);
  const double acc = evaluate_accuracy(model, task.test.inputs(),
                                       task.test.labels());
  EXPECT_GT(acc, 0.95) << "ring task should be almost perfectly separable";
}

TEST(Trainer, LossDecreasesOverEpochs) {
  auto task = testing::make_ring_task(400, 100, 44);
  Rng rng(45);
  Classifier model = testing::make_mlp(2, 16, 3, rng);
  TrainConfig config;
  config.epochs = 15;
  config.learning_rate = 0.05;
  const TrainHistory history = train_classifier(
      model, task.train.inputs(), task.train.labels(), config, rng);
  ASSERT_EQ(history.epochs.size(), 15u);
  EXPECT_LT(history.epochs.back().mean_loss,
            history.epochs.front().mean_loss * 0.5);
}

TEST(Trainer, LossTargetStopsEarly) {
  auto task = testing::make_ring_task(400, 100, 46);
  Rng rng(47);
  Classifier model = testing::make_mlp(2, 16, 3, rng);
  TrainConfig config;
  config.epochs = 100;
  config.learning_rate = 0.05;
  config.loss_target = 0.3;
  const TrainHistory history = train_classifier(
      model, task.train.inputs(), task.train.labels(), config, rng);
  EXPECT_LT(history.epochs.size(), 100u);
  EXPECT_LT(history.final_loss(), 0.3);
}

TEST(Trainer, SampleWeightsChangeOutcome) {
  // Two-point dataset with contradictory labels at the same x: training
  // with all weight on one sample must predict that sample's label.
  Rng rng(48);
  Tensor inputs({2, 2}, std::vector<float>{0.5f, 0.5f, 0.5f, 0.5f});
  const std::vector<int> labels = {0, 1};
  {
    Classifier model = testing::make_mlp(2, 8, 2, rng);
    TrainConfig config;
    config.epochs = 30;
    config.learning_rate = 0.1;
    const std::vector<double> weights = {1.0, 0.0};
    train_classifier(model, inputs, labels, config, rng, weights);
    EXPECT_EQ(model.predict_single(inputs.row(0)), 0);
  }
  {
    Classifier model = testing::make_mlp(2, 8, 2, rng);
    TrainConfig config;
    config.epochs = 30;
    config.learning_rate = 0.1;
    const std::vector<double> weights = {0.0, 1.0};
    train_classifier(model, inputs, labels, config, rng, weights);
    EXPECT_EQ(model.predict_single(inputs.row(0)), 1);
  }
}

TEST(Trainer, AdamVariantAlsoLearns) {
  auto task = testing::make_ring_task(400, 200, 49);
  Rng rng(50);
  Classifier model = testing::make_mlp(2, 16, 3, rng);
  TrainConfig config;
  config.epochs = 20;
  config.use_adam = true;
  config.learning_rate = 0.01;
  train_classifier(model, task.train.inputs(), task.train.labels(), config,
                   rng);
  EXPECT_GT(evaluate_accuracy(model, task.test.inputs(), task.test.labels()),
            0.9);
}

TEST(Metrics, AccuracyAndConfusion) {
  const std::vector<int> preds = {0, 1, 1, 2};
  const std::vector<int> labels = {0, 1, 2, 2};
  EXPECT_DOUBLE_EQ(accuracy(preds, labels), 0.75);
  const auto cm = confusion_matrix(preds, labels, 3);
  EXPECT_EQ(cm[2][1], 1u);
  EXPECT_EQ(cm[2][2], 1u);
  EXPECT_EQ(cm[0][0], 1u);
}

TEST(Metrics, MarginAndEntropy) {
  const std::vector<float> confident = {0.9f, 0.05f, 0.05f};
  const std::vector<float> uncertain = {0.34f, 0.33f, 0.33f};
  EXPECT_GT(probability_margin(confident), probability_margin(uncertain));
  EXPECT_LT(predictive_entropy(confident), predictive_entropy(uncertain));
  // Uniform entropy = log k.
  const std::vector<float> uniform = {0.25f, 0.25f, 0.25f, 0.25f};
  EXPECT_NEAR(predictive_entropy(uniform), std::log(4.0), 1e-5);
}

TEST(Serialize, RoundTripsThroughStream) {
  Rng rng(51);
  Classifier a = testing::make_mlp(3, 6, 2, rng);
  Classifier b = testing::make_mlp(3, 6, 2, rng);
  std::stringstream buffer;
  save_parameters(a.network(), buffer);
  load_parameters(b.network(), buffer);
  const Tensor x = Tensor::randn({4, 3}, rng);
  const Tensor pa = a.probabilities(x);
  const Tensor pb = b.probabilities(x);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_FLOAT_EQ(pa.at(i), pb.at(i));
  }
}

TEST(Serialize, DetectsArchitectureMismatch) {
  Rng rng(52);
  Classifier a = testing::make_mlp(3, 6, 2, rng);
  Classifier wrong = testing::make_mlp(3, 7, 2, rng);
  std::stringstream buffer;
  save_parameters(a.network(), buffer);
  EXPECT_THROW(load_parameters(wrong.network(), buffer), IoError);
}

TEST(Serialize, DetectsCorruptStream) {
  Rng rng(53);
  Classifier a = testing::make_mlp(3, 6, 2, rng);
  std::stringstream buffer;
  buffer << "not a parameter stream";
  EXPECT_THROW(load_parameters(a.network(), buffer), IoError);
}

TEST(Serialize, SnapshotRestoreRoundTrip) {
  Rng rng(54);
  Classifier model = testing::make_mlp(3, 6, 2, rng);
  const auto snapshot = snapshot_parameters(model.network());
  const Tensor x = Tensor::randn({2, 3}, rng);
  const Tensor before = model.probabilities(x);
  // Perturb, then restore.
  for (Tensor* p : model.network().parameters()) {
    *p += 0.5f;
  }
  restore_parameters(model.network(), snapshot);
  const Tensor after = model.probabilities(x);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before.at(i), after.at(i));
  }
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(55);
  Classifier a = testing::make_mlp(2, 4, 2, rng);
  Classifier b = testing::make_mlp(2, 4, 2, rng);
  const std::string path = ::testing::TempDir() + "/opad_params.bin";
  save_parameters_file(a.network(), path);
  load_parameters_file(b.network(), path);
  const Tensor x = Tensor::randn({1, 2}, rng);
  EXPECT_EQ(a.predict(x)[0], b.predict(x)[0]);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace opad
