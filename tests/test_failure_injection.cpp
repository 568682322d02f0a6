// Failure-injection suite: feed the library malformed, extreme, or
// adversarially degenerate inputs and verify it fails loudly (typed
// exceptions) or degrades gracefully — never silently corrupts results.
#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "attack/pgd.h"
#include "core/methods.h"
#include "core/seed_sampler.h"
#include "data/generators.h"
#include "naturalness/density_naturalness.h"
#include "op/gmm.h"
#include "op/histogram.h"
#include "op/kde.h"
#include "reliability/cell_model.h"
#include "serve/detector.h"
#include "serve/service.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"

namespace opad {
namespace {

TEST(FailureInjection, GmmDensityWithWrongDimensionThrows) {
  GaussianMixtureModel::Component c;
  c.weight = 1.0;
  c.mean = {0.0, 0.0};
  c.variance = {1.0, 1.0};
  auto c2 = c;
  const GaussianMixtureModel gmm({c, c2});
  EXPECT_THROW(gmm.log_density(Tensor({3})), PreconditionError);
  EXPECT_THROW(gmm.log_density(Tensor({2, 2})), PreconditionError);
}

TEST(FailureInjection, GmmDensityOfExtremePointIsFiniteLog) {
  GaussianMixtureModel::Component c;
  c.weight = 1.0;
  c.mean = {0.0};
  c.variance = {1.0};
  auto c2 = c;
  const GaussianMixtureModel gmm({c, c2});
  Tensor far({1});
  far.at(0) = 1e6f;
  const double lp = gmm.log_density(far);
  // Astronomically small density but a well-defined log value.
  EXPECT_TRUE(std::isfinite(lp) ||
              lp == -std::numeric_limits<double>::infinity());
  EXPECT_LT(lp, -1e6);
}

TEST(FailureInjection, AttackRejectsWrongSeedShape) {
  Rng rng(1);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  PgdConfig config;
  config.ball.eps = 0.1f;
  const Pgd attack(config);
  EXPECT_THROW(attack.run(model, Tensor({5}), 0, rng), PreconditionError);
  EXPECT_THROW(attack.run(model, Tensor({1, 4}), 0, rng),
               PreconditionError);
}

TEST(FailureInjection, ClassifierRejectsOutOfRangeLabelGradients) {
  Rng rng(2);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  EXPECT_THROW(model.input_gradient(Tensor({4}), 3), PreconditionError);
  EXPECT_THROW(model.input_gradient(Tensor({4}), -1), PreconditionError);
}

TEST(FailureInjection, NanInputDoesNotCorruptAttackSilently) {
  Rng rng(3);
  auto task = testing::make_ring_task(200, 50, 31);
  Rng train_rng(32);
  Classifier model = testing::train_mlp(task.train, 8, 5, train_rng);
  Tensor seed({2});
  seed.at(0) = std::numeric_limits<float>::quiet_NaN();
  PgdConfig config;
  config.ball.eps = 0.3f;
  config.ball.input_lo = -5.0f;
  config.ball.input_hi = 5.0f;
  config.steps = 3;
  config.restarts = 1;
  const Pgd attack(config);
  // The attack itself must not crash; projection clamps the iterate into
  // the valid box, so the *result* is finite even from a NaN seed... or
  // the result flags non-success. Either way, no silent garbage verdict:
  const AttackResult r = attack.run(model, seed, 0, rng);
  if (r.success) {
    EXPECT_NE(model.predict_single(r.adversarial), 0);
  }
}

TEST(FailureInjection, SeedSamplerWithDegenerateWeightsStillSamples) {
  // A pool where the model is maximally confident everywhere: margins
  // ~1, so aux scores hit their floor — sampling must still work.
  Rng rng(4);
  auto task = testing::make_ring_task(400, 100, 33);
  Rng train_rng(34);
  Classifier model = testing::train_mlp(task.train, 24, 30, train_rng);
  SeedSamplerConfig config;
  config.gamma = 0.0;
  const SeedSampler sampler(config, nullptr);
  const auto picks = sampler.sample(model, task.test, 10, rng);
  EXPECT_EQ(picks.size(), 10u);
}

TEST(FailureInjection, CellModelRejectsDegenerateWeights) {
  auto partition = std::make_shared<const CellPartition>(
      std::vector<double>{0.0}, std::vector<double>{1.0}, 4);
  // NaN weight.
  std::vector<double> w = {0.25, 0.25, 0.25,
                           std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(CellReliabilityModel(partition, w), PreconditionError);
  // Negative weight.
  w = {0.5, 0.6, -0.1, 0.0};
  EXPECT_THROW(CellReliabilityModel(partition, w), PreconditionError);
}

TEST(FailureInjection, HistogramOnConstantDataStillNormalises) {
  Rng rng(5);
  Tensor constant({50, 2});
  constant.fill(0.5f);
  auto partition = std::make_shared<const CellPartition>(
      CellPartition::fit(constant, 4, 2, rng));
  const HistogramProfile hist(partition, constant, 0.5);
  double total = 0.0;
  for (double p : hist.cell_probabilities()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(FailureInjection, KdeHandlesDuplicatePoints) {
  Rng rng(6);
  Tensor dup({30, 2});
  dup.fill(1.0f);  // all identical: variance 0 -> bandwidth floor kicks in
  const KernelDensityEstimator kde(dup, KdeConfig{}, rng);
  Tensor probe({2});
  probe.fill(1.0f);
  EXPECT_TRUE(std::isfinite(kde.log_density(probe)));
  for (double h : kde.bandwidth()) EXPECT_GT(h, 0.0);
}

TEST(FailureInjection, MethodContextMissingPiecesRejected) {
  Rng rng(7);
  auto task = testing::make_ring_task(200, 50, 35);
  Rng train_rng(36);
  Classifier model = testing::train_mlp(task.train, 8, 5, train_rng);
  const auto opad = make_opad_method(MethodSuiteConfig{});
  MethodContext ctx;  // everything null
  EXPECT_THROW(opad->detect(model, ctx, 100, rng), PreconditionError);
  ctx.seeds.balanced = &task.test;
  EXPECT_THROW(opad->detect(model, ctx, 100, rng), PreconditionError);
  ctx.seeds.operational = &task.test;
  // metric still missing
  EXPECT_THROW(opad->detect(model, ctx, 100, rng), PreconditionError);
}

TEST(FailureInjection, DensityNaturalnessNullProfileRejected) {
  EXPECT_THROW(DensityNaturalness{nullptr}, PreconditionError);
}

TEST(FailureInjection, ServiceRejectsMalformedRequestAndKeepsServing) {
  // A wrong-sized request used to reach Tensor::set_row on the scheduler
  // thread and terminate the process. Now only its own future fails.
  auto task = testing::make_ring_task(200, 40, 37);
  Rng train_rng(38);
  Classifier model = testing::train_mlp(task.train, 8, 5, train_rng);
  GmmConfig gmm_config;
  gmm_config.components = 3;
  Rng fit_rng(39);
  const ProfilePtr profile = std::make_shared<const GaussianMixtureModel>(
      GaussianMixtureModel::fit(task.train.inputs(), gmm_config, fit_rng));
  const double tau = -4.0;
  const std::size_t dim = task.train.dim();
  serve::DetectionService service(model.clone(), profile, tau,
                                  serve::ServiceConfig{});
  service.start();

  std::vector<Tensor> inputs;
  std::vector<std::future<serve::DetectResult>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto row = task.test.row(i);
    inputs.emplace_back(Shape{dim},
                        std::vector<float>(row.begin(), row.end()));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    futures.push_back(service.submit(inputs[i]));
  }
  auto wrong_size = service.submit(Tensor({dim + 3}));
  auto wrong_rank = service.try_submit(Tensor({1, dim}));
  for (std::size_t i = 3; i < 6; ++i) {
    futures.push_back(service.submit(inputs[i]));
  }

  EXPECT_THROW(wrong_size.get(), PreconditionError);
  ASSERT_TRUE(wrong_rank.has_value());  // rejected, not shed
  EXPECT_THROW(wrong_rank->get(), PreconditionError);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    serve::DetectResult want;
    Classifier replica = model.clone();
    serve::score_batch(replica, *profile, tau,
                       inputs[i].reshaped({1, dim}),
                       std::span<serve::DetectResult>(&want, 1));
    const serve::DetectResult got = futures[i].get();
    EXPECT_EQ(got.label, want.label) << "request " << i;
    EXPECT_EQ(got.naturalness, want.naturalness) << "request " << i;
    EXPECT_EQ(got.natural, want.natural) << "request " << i;
  }
  service.stop();
  EXPECT_EQ(service.stats().served, inputs.size());
  EXPECT_EQ(service.stats().shed, 0u);
}

/// Scores a row by its first feature and throws on rows marked with
/// kMarker there, standing in for a detector that fails mid-batch.
class ThrowingDetector : public Detector {
 public:
  static constexpr float kMarker = 99.0f;

  explicit ThrowingDetector(std::size_t dim) : dim_(dim) {}
  std::string name() const override { return "throwing"; }
  std::size_t dim() const override { return dim_; }
  void fit(const Dataset&, Rng&) override {}
  bool fitted() const override { return true; }
  void score_batch(const Tensor& inputs,
                   std::span<double> out) const override {
    for (std::size_t r = 0; r < inputs.dim(0); ++r) {
      const float first = inputs(r, 0);
      if (first == kMarker) throw std::runtime_error("detector failed");
      out[r] = first;
    }
  }

 private:
  std::size_t dim_;
};

TEST(FailureInjection, ThrowingDetectorFailsOnlyItsBatch) {
  // A scoring exception used to escape the scheduler thread and
  // terminate the process. Now it fails every request of its own
  // micro-batch, and the service keeps serving later ones.
  auto task = testing::make_ring_task(200, 40, 40);
  Rng train_rng(41);
  Classifier model = testing::train_mlp(task.train, 8, 5, train_rng);
  const std::size_t dim = task.train.dim();
  auto detector = std::make_shared<ThrowingDetector>(dim);
  detector->set_threshold(0.0);
  serve::ServiceConfig config;
  config.max_batch = 8;
  serve::DetectionService service(model.clone(), detector, config);

  const auto input = [&](std::size_t i) {
    const auto row = task.test.row(i);
    return Tensor(Shape{dim}, std::vector<float>(row.begin(), row.end()));
  };
  Tensor marked = input(0);
  marked.at(0) = ThrowingDetector::kMarker;

  // Queued before start(), the three requests share one micro-batch.
  auto before = service.submit(input(1));
  auto bad = service.submit(marked);
  auto after = service.submit(input(2));
  service.start();
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_THROW(before.get(), std::runtime_error);
  EXPECT_THROW(after.get(), std::runtime_error);

  const Tensor good = input(3);
  const serve::DetectResult got = service.submit(good).get();
  Classifier replica = model.clone();
  serve::DetectResult want;
  serve::score_batch(replica, *detector, good.reshaped({1, dim}),
                     std::span<serve::DetectResult>(&want, 1));
  EXPECT_EQ(got.label, want.label);
  EXPECT_EQ(got.naturalness, want.naturalness);
  EXPECT_EQ(got.natural, want.natural);

  service.stop();  // joins the scheduler
  // The failed batch is left out of the counters.
  EXPECT_EQ(service.stats().served, 1u);
  EXPECT_EQ(service.stats().batches, 1u);
}

TEST(FailureInjection, ProjectionDegenerateEpsKeepsSeed) {
  // eps = 0 ball: projection must return the seed itself.
  Tensor seed({3}, std::vector<float>{0.2f, 0.5f, 0.8f});
  Tensor candidate({3}, std::vector<float>{0.9f, 0.1f, 0.3f});
  project_linf_ball(candidate, seed, 0.0f, 0.0f, 1.0f);
  EXPECT_TRUE(candidate == seed);
}

}  // namespace
}  // namespace opad
