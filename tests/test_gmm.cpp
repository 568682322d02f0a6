#include "op/gmm.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/stream.h"
#include "test_helpers.h"
#include "util/special_math.h"

namespace opad {
namespace {

GaussianMixtureModel two_component_model() {
  GaussianMixtureModel::Component a;
  a.weight = 0.3;
  a.mean = {-2.0, 0.0};
  a.variance = {0.5, 0.5};
  GaussianMixtureModel::Component b;
  b.weight = 0.7;
  b.mean = {3.0, 1.0};
  b.variance = {1.0, 2.0};
  return GaussianMixtureModel({a, b});
}

TEST(Gmm, WeightsNormalised) {
  GaussianMixtureModel::Component a;
  a.weight = 2.0;
  a.mean = {0.0};
  a.variance = {1.0};
  GaussianMixtureModel::Component b = a;
  b.weight = 6.0;
  b.mean = {5.0};
  const GaussianMixtureModel gmm({a, b});
  EXPECT_NEAR(gmm.components()[0].weight, 0.25, 1e-12);
  EXPECT_NEAR(gmm.components()[1].weight, 0.75, 1e-12);
}

TEST(Gmm, LogDensityMatchesSingleGaussian) {
  GaussianMixtureModel::Component c;
  c.weight = 1.0;
  c.mean = {0.0, 0.0};
  c.variance = {1.0, 1.0};
  GaussianMixtureModel::Component dup = c;  // two identical components
  const GaussianMixtureModel gmm({c, dup});
  Tensor x({2});
  x.at(0) = 1.0f;
  x.at(1) = -1.0f;
  const double expected = -std::log(2.0 * M_PI) - 1.0;
  EXPECT_NEAR(gmm.log_density(x), expected, 1e-6);
}

TEST(Gmm, DensityIntegratesToOne) {
  const auto gmm = two_component_model();
  double integral = 0.0;
  const double step = 0.15;
  for (double x = -10.0; x < 12.0; x += step) {
    for (double y = -8.0; y < 10.0; y += step) {
      Tensor p({2});
      p.at(0) = static_cast<float>(x);
      p.at(1) = static_cast<float>(y);
      integral += std::exp(gmm.log_density(p)) * step * step;
    }
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Gmm, ResponsibilitiesSumToOneAndPickNearest) {
  const auto gmm = two_component_model();
  Tensor near_a({2});
  near_a.at(0) = -2.0f;
  const auto r = gmm.responsibilities(near_a);
  EXPECT_NEAR(r[0] + r[1], 1.0, 1e-9);
  EXPECT_GT(r[0], 0.95);
}

TEST(Gmm, SampleMomentsMatchMixture) {
  const auto gmm = two_component_model();
  Rng rng(1);
  const int n = 40000;
  double mx = 0.0;
  for (int i = 0; i < n; ++i) mx += gmm.sample(rng)(0);
  // E[x0] = 0.3*(-2) + 0.7*3 = 1.5.
  EXPECT_NEAR(mx / n, 1.5, 0.05);
}

TEST(Gmm, GradientMatchesFiniteDifference) {
  const auto gmm = two_component_model();
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const Tensor x = Tensor::randn({2}, rng, 0.5f, 2.0f);
    const Tensor analytic = gmm.log_density_gradient(x);
    auto objective = [&gmm](const Tensor& probe) {
      return gmm.log_density(probe);
    };
    const Tensor numeric = testing::numerical_gradient(objective, x);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(analytic.at(i), numeric.at(i),
                  2e-2 * (1.0 + std::fabs(numeric.at(i))));
    }
  }
}

TEST(Gmm, GradientPointsTowardHigherDensity) {
  const auto gmm = two_component_model();
  Tensor x({2});
  x.at(0) = 0.0f;
  x.at(1) = 0.0f;
  const Tensor grad = gmm.log_density_gradient(x);
  // One gradient step should increase log density.
  Tensor stepped = x;
  Tensor scaled = grad;
  scaled *= 0.01f;
  stepped += scaled;
  EXPECT_GT(gmm.log_density(stepped), gmm.log_density(x));
}

TEST(GmmFit, RecoversWellSeparatedClusters) {
  Rng rng(3);
  const auto generator = GaussianClustersGenerator::make_ring(3, 4.0, 0.1);
  const Dataset data = generator.make_dataset(600, rng);
  GmmConfig config;
  config.components = 3;
  const auto gmm = GaussianMixtureModel::fit(data.inputs(), config, rng);
  // Each fitted mean must be close to one true cluster center.
  for (const auto& comp : gmm.components()) {
    double best = 1e9;
    for (int k = 0; k < 3; ++k) {
      const double angle = 2.0 * M_PI * k / 3.0;
      const double dx = comp.mean[0] - 4.0 * std::cos(angle);
      const double dy = comp.mean[1] - 4.0 * std::sin(angle);
      best = std::min(best, std::sqrt(dx * dx + dy * dy));
    }
    EXPECT_LT(best, 0.5);
    EXPECT_NEAR(comp.weight, 1.0 / 3.0, 0.1);
  }
}

TEST(GmmFit, LikelihoodImprovesWithFit) {
  Rng rng(4);
  const auto generator = GaussianClustersGenerator::make_ring(4, 3.0, 0.2);
  const Dataset data = generator.make_dataset(400, rng);
  GmmConfig config;
  config.components = 4;
  const auto fitted = GaussianMixtureModel::fit(data.inputs(), config, rng);

  // A deliberately bad single-blob model.
  GaussianMixtureModel::Component blob;
  blob.weight = 1.0;
  blob.mean = {0.0, 0.0};
  blob.variance = {25.0, 25.0};
  GaussianMixtureModel::Component blob2 = blob;
  const GaussianMixtureModel bad({blob, blob2});

  EXPECT_GT(fitted.mean_log_likelihood(data.inputs()),
            bad.mean_log_likelihood(data.inputs()) + 0.5);
}

TEST(GmmFit, MoreDataImprovesHeldOutLikelihood) {
  Rng rng(5);
  const auto generator = GaussianClustersGenerator::make_ring(3, 3.0, 0.3);
  const Dataset heldout = generator.make_dataset(500, rng);
  GmmConfig config;
  config.components = 3;
  const Dataset small = generator.make_dataset(30, rng);
  const Dataset large = generator.make_dataset(1000, rng);
  const auto gmm_small = GaussianMixtureModel::fit(small.inputs(), config, rng);
  const auto gmm_large = GaussianMixtureModel::fit(large.inputs(), config, rng);
  EXPECT_GE(gmm_large.mean_log_likelihood(heldout.inputs()),
            gmm_small.mean_log_likelihood(heldout.inputs()) - 0.05);
}

TEST(GmmFit, VarianceFloorPreventsCollapse) {
  Rng rng(6);
  // Many duplicated points: naive EM would collapse variance to zero.
  Tensor data({50, 2});
  for (std::size_t i = 0; i < 50; ++i) {
    data(i, 0) = i < 25 ? 0.0f : 5.0f;
    data(i, 1) = 0.0f;
  }
  GmmConfig config;
  config.components = 2;
  config.variance_floor = 1e-3;
  const auto gmm = GaussianMixtureModel::fit(data, config, rng);
  for (const auto& comp : gmm.components()) {
    for (double v : comp.variance) {
      EXPECT_GE(v, 1e-3 - 1e-12);
    }
  }
  Tensor probe({2});
  EXPECT_TRUE(std::isfinite(gmm.log_density(probe)));
}

TEST(GmmFit, TraceRecordsMonotonishLikelihoodPerIteration) {
  Rng rng(8);
  const auto generator = GaussianClustersGenerator::make_ring(3, 3.0, 0.3);
  const Dataset data = generator.make_dataset(300, rng);
  GmmConfig config;
  config.components = 3;
  config.max_iterations = 30;
  GmmFitTrace trace;
  const auto gmm =
      GaussianMixtureModel::fit(data.inputs(), config, rng, &trace);
  ASSERT_GE(trace.mean_log_likelihood.size(), 2u);
  ASSERT_LE(trace.mean_log_likelihood.size(), config.max_iterations);
  for (double ll : trace.mean_log_likelihood) {
    EXPECT_TRUE(std::isfinite(ll));
  }
  // EM's guarantee: the likelihood of the parameters each iteration
  // starts from never decreases (up to the variance floor's projection).
  EXPECT_GT(trace.mean_log_likelihood.back(),
            trace.mean_log_likelihood.front() - 1e-9);
  // The final trace entry evaluates the second-to-last parameter set; the
  // returned model is one M step newer and must score at least as well.
  EXPECT_GE(gmm.mean_log_likelihood(data.inputs()),
            trace.mean_log_likelihood.back() - 1e-6);
}

/// log p(x | component), re-derived on every call from components() —
/// the formula the cached normalisers must reproduce bit for bit.
double per_call_log_pdf(const GaussianMixtureModel::Component& c,
                        const Tensor& x) {
  double quad = 0.0, log_det = 0.0;
  for (std::size_t j = 0; j < c.mean.size(); ++j) {
    const double d = static_cast<double>(x.at(j)) - c.mean[j];
    quad += d * d / c.variance[j];
    log_det += std::log(c.variance[j]);
  }
  return -0.5 * (static_cast<double>(c.mean.size()) * std::log(2.0 * M_PI) +
                 log_det + quad);
}

void expect_per_call_formula(const GaussianMixtureModel& gmm, Rng& rng) {
  const auto& comps = gmm.components();
  for (int trial = 0; trial < 8; ++trial) {
    const Tensor x = Tensor::randn({gmm.dim()}, rng, 0.0f, 2.0f);
    std::vector<double> log_terms(comps.size());
    double density = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < comps.size(); ++k) {
      log_terms[k] = std::log(comps[k].weight) + per_call_log_pdf(comps[k], x);
      density = log_add_exp(density, log_terms[k]);
    }
    const double log_z = log_sum_exp(log_terms);
    std::vector<double> resp(comps.size());
    Tensor grad({gmm.dim()});
    for (std::size_t k = 0; k < comps.size(); ++k) {
      resp[k] = std::exp(log_terms[k] - log_z);
      for (std::size_t j = 0; j < gmm.dim(); ++j) {
        grad.at(j) += static_cast<float>(
            resp[k] * -(static_cast<double>(x.at(j)) - comps[k].mean[j]) /
            comps[k].variance[j]);
      }
    }
    EXPECT_EQ(gmm.log_density(x), density) << "trial " << trial;
    EXPECT_EQ(gmm.responsibilities(x), resp) << "trial " << trial;
    const Tensor got = gmm.log_density_gradient(x);
    EXPECT_EQ(std::memcmp(got.data().data(), grad.data().data(),
                          grad.size() * sizeof(float)),
              0)
        << "trial " << trial;
  }
}

TEST(Gmm, CachedNormalisersMatchPerCallFormula) {
  // Every query reads log-weights and log-normalisers cached at
  // construction and at the end of each fit; the results must equal the
  // per-call formula bitwise, whichever way the model was made.
  Rng rng(8);
  expect_per_call_formula(two_component_model(), rng);

  const auto generator = GaussianClustersGenerator::make_ring(3, 2.0, 0.4);
  const Dataset data = generator.make_dataset(300, rng);
  GmmConfig config;
  config.components = 4;
  config.max_iterations = 12;
  Rng fit_rng(9);
  const auto in_core = GaussianMixtureModel::fit(data.inputs(), config, fit_rng);
  expect_per_call_formula(in_core, rng);

  const InCoreSampleStream stream(data, 64);
  Rng stream_rng(9);
  expect_per_call_formula(GaussianMixtureModel::fit(stream, config, stream_rng),
                          rng);

  std::stringstream bytes;
  save_gmm(in_core, bytes);
  expect_per_call_formula(load_gmm(bytes), rng);
}

TEST(GmmFit, RejectsTooFewSamples) {
  Rng rng(7);
  GmmConfig config;
  config.components = 5;
  EXPECT_THROW(GaussianMixtureModel::fit(Tensor({3, 2}), config, rng),
               PreconditionError);
}

}  // namespace
}  // namespace opad
