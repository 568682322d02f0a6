// Failure-injection suite: feed the library malformed, extreme, or
// adversarially degenerate inputs and verify it fails loudly (typed
// exceptions) or degrades gracefully — never silently corrupts results.
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/pgd.h"
#include "core/methods.h"
#include "core/seed_sampler.h"
#include "nn/serialize.h"
#include "data/generators.h"
#include "detect/density_detector.h"
#include "naturalness/density_naturalness.h"
#include "op/cells.h"
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

/// `profile` as a service detector that flags below `tau`.
std::shared_ptr<const Detector> density_at(ProfilePtr profile, double tau) {
  auto detector = std::make_shared<DensityDetector>(std::move(profile));
  detector->set_threshold(tau);
  return detector;
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
  const std::size_t dim = task.train.dim();
  const auto detector = density_at(profile, -4.0);
  serve::DetectionService service(model.clone(), detector,
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
    serve::score_batch(replica, *detector, inputs[i].reshaped({1, dim}),
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

TEST(FailureInjection, NonFiniteRequestFailsOnlyItsFuture) {
  // A NaN or infinite feature used to be queued and served, its verdict
  // computed from a NaN row. Now it is rejected at admission like a
  // wrong-sized input: never queued, neither served nor shed.
  auto task = testing::make_ring_task(200, 40, 47);
  Rng train_rng(48);
  Classifier model = testing::train_mlp(task.train, 8, 5, train_rng);
  GmmConfig gmm_config;
  gmm_config.components = 3;
  Rng fit_rng(49);
  const auto detector = density_at(
      std::make_shared<const GaussianMixtureModel>(GaussianMixtureModel::fit(
          task.train.inputs(), gmm_config, fit_rng)),
      -4.0);
  const std::size_t dim = task.train.dim();
  serve::ServiceConfig config;
  config.max_batch = 8;
  serve::DetectionService service(model.clone(), detector, config);

  const auto input = [&](std::size_t i) {
    const auto row = task.test.row(i);
    return Tensor(Shape{dim}, std::vector<float>(row.begin(), row.end()));
  };
  const float poisons[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};
  // Queued before start(): any poisoned row admitted would be coalesced
  // with the finite rows.
  std::vector<Tensor> finite;
  std::vector<std::future<serve::DetectResult>> served;
  std::vector<std::future<serve::DetectResult>> rejected;
  for (std::size_t p = 0; p < 3; ++p) {
    Tensor poisoned = input(p);
    poisoned.at(p % dim) = poisons[p];
    finite.push_back(input(10 + p));
    served.push_back(service.submit(finite.back()));
    rejected.push_back(service.submit(poisoned));
    auto shed_or_rejected = service.try_submit(poisoned);
    ASSERT_TRUE(shed_or_rejected.has_value()) << "poison " << p;
    rejected.push_back(std::move(*shed_or_rejected));
  }
  service.start();
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_THROW(rejected[i].get(), PreconditionError) << "request " << i;
  }
  finite.push_back(input(20));
  served.push_back(service.submit(finite.back()));
  for (std::size_t i = 0; i < finite.size(); ++i) {
    serve::DetectResult want;
    Classifier replica = model.clone();
    serve::score_batch(replica, *detector, finite[i].reshaped({1, dim}),
                       std::span<serve::DetectResult>(&want, 1));
    const serve::DetectResult got = served[i].get();
    EXPECT_EQ(got.label, want.label) << "request " << i;
    EXPECT_EQ(got.naturalness, want.naturalness) << "request " << i;
    EXPECT_EQ(got.natural, want.natural) << "request " << i;
  }
  service.stop();
  EXPECT_EQ(service.stats().served, finite.size());
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

TEST(FailureInjection, ThrowingRefitKeepsServingAndRetries) {
  // A throwing RefitFn used to escape its std::thread and terminate the
  // process. Now the failure is counted, the serving profile stays, and
  // the next alarm run starts a new re-fit.
  auto task = testing::make_ring_task(400, 100, 42);
  Rng train_rng(43);
  Classifier model = testing::train_mlp(task.train, 8, 5, train_rng);
  GmmConfig gmm_config;
  gmm_config.components = 3;
  Rng fit_rng(44);
  const ProfilePtr profile = std::make_shared<const GaussianMixtureModel>(
      GaussianMixtureModel::fit(task.train.inputs(), gmm_config, fit_rng));
  const auto detector = density_at(profile, -4.0);
  const std::size_t dim = task.train.dim();

  Rng rng(45);
  auto partition = std::make_shared<const CellPartition>(
      CellPartition::fit(task.train.inputs(), 6, 2, rng));
  serve::DriftTriggerConfig trigger_config;
  trigger_config.monitor.window = 100;
  trigger_config.monitor.calibration_draws = 100;
  trigger_config.persistence = 10;
  trigger_config.refit_sample = 150;
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto trigger = std::make_unique<serve::OnlineDriftTrigger>(
      partition, task.train.inputs(), trigger_config,
      [calls](const Tensor& recent, Rng& refit_rng) -> ProfilePtr {
        if (calls->fetch_add(1) == 0) throw std::runtime_error("refit failed");
        GmmConfig gmm;
        gmm.components = 3;
        return std::make_shared<GaussianMixtureModel>(
            GaussianMixtureModel::fit(recent, gmm, refit_rng));
      },
      rng);
  const serve::OnlineDriftTrigger* watch = trigger.get();
  serve::ServiceConfig config;
  config.max_batch = 8;
  config.max_delay_us = 100;
  serve::DetectionService service(model.clone(), detector, config,
                                  std::move(trigger));
  service.start();

  const auto shifted = task.generator.shifted({2.5, 2.5});
  Rng stream_rng(46);
  Classifier replica = model.clone();
  int mismatches = 0;
  for (int i = 0; i < 2000 && watch->refits_failed() == 0; ++i) {
    const Tensor x = shifted.sample(stream_rng).x;
    const serve::DetectResult got = service.submit(x).get();
    serve::DetectResult want;
    serve::score_batch(replica, *detector, x.reshaped({1, dim}),
                       std::span<serve::DetectResult>(&want, 1));
    if (got.label != want.label || got.naturalness != want.naturalness ||
        got.natural != want.natural) {
      ++mismatches;
    }
  }
  ASSERT_EQ(watch->refits_failed(), 1u);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(service.stats().refits, 0u);
  EXPECT_EQ(service.profile().get(), profile.get());

  for (int i = 0; i < 2000 && service.stats().refits == 0; ++i) {
    service.submit(shifted.sample(stream_rng).x).get();
  }
  service.stop();
  EXPECT_EQ(service.stats().refits, 1u);
  EXPECT_NE(service.profile().get(), profile.get());
  EXPECT_EQ(watch->refits_failed(), 1u);
  EXPECT_EQ(watch->refits_started(), 2u);
  EXPECT_EQ(calls->load(), 2);
}

/// Whether every parameter of `model` is bitwise equal to `snapshot`.
bool parameters_equal(Sequential& model, const std::vector<Tensor>& snapshot) {
  const auto params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto got = params[i]->data();
    const auto want = snapshot[i].data();
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

/// `bytes` truncated (even trials) or with 1-3 flipped bits (odd trials).
std::string corrupt(const std::string& bytes, int trial, Rng& rng) {
  std::string out = bytes;
  if (trial % 2 == 0) {
    out.resize(rng.uniform_index(bytes.size()));
  } else {
    const std::size_t flips = 1 + rng.uniform_index(3);
    for (std::size_t f = 0; f < flips; ++f) {
      out[rng.uniform_index(out.size())] ^=
          static_cast<char>(1u << rng.uniform_index(8));
    }
  }
  return out;
}

TEST(FailureInjection, CorruptParameterStreamLoadsAllOrNothing) {
  // A shape mismatch or a short payload at parameter k used to leave
  // parameters 0..k-1 (and part of k) already overwritten.
  Rng rng(47);
  Classifier saved = testing::make_mlp(64, 64, 10, rng);  // digits MLP
  std::ostringstream out;
  save_parameters(saved.network(), out);
  const std::string bytes = out.str();
  Classifier model = testing::make_mlp(64, 64, 10, rng);
  const std::vector<Tensor> before = snapshot_parameters(model.network());

  Rng sweep(48);
  int loaded = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::istringstream in(corrupt(bytes, trial, sweep));
    try {
      load_parameters(model.network(), in);
      ++loaded;
      for (const Tensor* p : model.network().parameters()) {
        for (const float v : p->data()) ASSERT_TRUE(std::isfinite(v));
      }
      restore_parameters(model.network(), before);
    } catch (const Error&) {
      ++rejected;
      ASSERT_TRUE(parameters_equal(model.network(), before))
          << "trial " << trial << " left the model half-written";
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);

  // A non-finite value in the last tensor fails the whole load.
  for (const float poison : {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity()}) {
    std::string bad = bytes;
    std::memcpy(bad.data() + bad.size() - sizeof(float), &poison,
                sizeof(float));
    std::istringstream in(bad);
    EXPECT_THROW(load_parameters(model.network(), in), IoError);
    EXPECT_TRUE(parameters_equal(model.network(), before));
  }
  // The intact stream still loads.
  std::istringstream in(bytes);
  load_parameters(model.network(), in);
  EXPECT_TRUE(
      parameters_equal(model.network(), snapshot_parameters(saved.network())));
}

TEST(FailureInjection, CorruptGmmStreamLoadsFiniteOrThrows) {
  auto task = testing::make_ring_task(300, 10, 49);
  GmmConfig config;
  config.components = 3;
  Rng fit_rng(50);
  const GaussianMixtureModel gmm =
      GaussianMixtureModel::fit(task.train.inputs(), config, fit_rng);
  std::ostringstream out;
  save_gmm(gmm, out);
  const std::string bytes = out.str();

  Rng sweep(51);
  int loaded = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::istringstream in(corrupt(bytes, trial, sweep));
    try {
      const GaussianMixtureModel restored = load_gmm(in);
      ++loaded;
      for (const auto& c : restored.components()) {
        ASSERT_TRUE(std::isfinite(c.weight));
        for (const double m : c.mean) ASSERT_TRUE(std::isfinite(m));
        for (const double v : c.variance) ASSERT_TRUE(std::isfinite(v));
      }
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);

  // The first mean of the first component sits after the magic, the two
  // u64 header fields and the first weight.
  const std::size_t mean_at = 4 + 8 + 8 + 8;
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    std::string bad = bytes;
    std::memcpy(bad.data() + mean_at, &poison, sizeof(double));
    std::istringstream in(bad);
    EXPECT_THROW(load_gmm(in), IoError);
  }
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
