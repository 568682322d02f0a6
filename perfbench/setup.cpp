#include "setup.h"

#include "data/augment.h"
#include "data/digits.h"
#include "harness.h"
#include "naturalness/density_naturalness.h"
#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/trainer.h"
#include "util/rng.h"

namespace perfbench {

using namespace opad;

namespace {

std::unique_ptr<Classifier> train_mlp(const Dataset& train,
                                      std::size_t hidden, std::size_t epochs,
                                      Rng& rng) {
  Sequential net(train.dim());
  net.emplace<Dense>(train.dim(), hidden, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(hidden, train.num_classes(), rng);
  auto model =
      std::make_unique<Classifier>(std::move(net), train.num_classes());
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 32;
  config.learning_rate = 0.05;
  config.momentum = 0.9;
  train_classifier(*model, train.inputs(), train.labels(), config, rng);
  return model;
}

template <typename W>
MethodContext context_of(const W& w) {
  MethodContext ctx;
  ctx.seeds.balanced = &w.test;
  ctx.seeds.operational = &w.op.operational_dataset;
  ctx.seeds.observed = &w.operational_sample;
  ctx.profile = w.op.profile;
  ctx.metric = w.metric;
  ctx.tau = w.tau;
  ctx.ball = w.ball;
  return ctx;
}

}  // namespace

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index) {
  return derive_stream_seed(seed, index);
}

std::uint64_t variant_seed(std::uint64_t seed, std::size_t variant) {
  return sub_seed(sub_seed(seed, 12), variant);
}

MethodContext Digits::context() const { return context_of(*this); }
MethodContext Ring::context() const { return context_of(*this); }

Digits make_digits(std::uint64_t seed) {
  Rng model_rng(kModelSeed);
  Rng rng(sub_seed(seed, 1));
  const auto train_generator =
      SyntheticDigitsGenerator::training_distribution();
  const auto op_generator =
      SyntheticDigitsGenerator::operational_distribution();
  Digits d;
  d.train = train_generator.make_dataset(1500, model_rng);
  d.test = train_generator.make_dataset(500, model_rng);
  d.model = train_mlp(d.train, 64, 18, model_rng);
  d.operational_sample = op_generator.make_dataset(400, rng);
  d.ball.eps = 0.08f;
  d.ball.input_lo = 0.0f;
  d.ball.input_hi = 1.0f;
  return d;
}

double learn_digits_op(Digits& d, std::uint64_t seed) {
  SynthesizerConfig synth;
  synth.synthetic_size = 4000;
  synth.gmm.components = 10;
  synth.gmm.max_iterations = 40;
  synth.gmm.tolerance = 0.0;  // every seed runs all 40 EM iterations
  // RQ1's label-preserving augmentation: shift, brightness, noise.
  synth.augment = compose_augments(
      {image_shift_augment(SyntheticDigitsGenerator::kSide, 1),
       brightness_augment(0.06), gaussian_noise_augment(0.04, 0.0f, 1.0f)});
  Rng rng(sub_seed(seed, 2));
  const Clock::time_point start = Clock::now();
  d.op = learn_operational_profile(d.operational_sample, synth, rng);
  const double learn_s = seconds_between(start, Clock::now());
  d.metric = std::make_shared<DensityNaturalness>(d.op.profile);
  // tau at the lower quartile of operational naturalness.
  d.tau = naturalness_threshold(*d.metric, d.op.operational_dataset.inputs(),
                                0.25);
  return learn_s;
}

Ring make_ring(std::uint64_t seed) {
  Rng model_rng(kModelSeed);
  Rng rng(sub_seed(seed, 1));
  const auto balanced = GaussianClustersGenerator::make_ring(3, 2.0, 0.5);
  Ring r;
  r.op_generator = std::make_shared<const GaussianClustersGenerator>(
      balanced.with_class_priors({0.6, 0.3, 0.1}));
  r.train = balanced.make_dataset(600, model_rng);
  r.test = balanced.make_dataset(300, model_rng);
  r.model = train_mlp(r.train, 24, 25, model_rng);
  r.operational_sample = r.op_generator->make_dataset(250, rng);

  SynthesizerConfig synth;
  synth.synthetic_size = 800;
  synth.gmm.components = 3;
  synth.gmm.tolerance = 0.0;  // every seed runs all EM iterations
  const Clock::time_point start = Clock::now();
  r.op = learn_operational_profile(r.operational_sample, synth, rng);
  r.learn_s = seconds_between(start, Clock::now());
  r.metric = std::make_shared<DensityNaturalness>(r.op.profile);
  r.tau = naturalness_threshold(*r.metric, r.op.operational_dataset.inputs(),
                                0.05);
  r.ball.eps = 0.45f;
  r.ball.input_lo = -6.0f;
  r.ball.input_hi = 6.0f;
  return r;
}

}  // namespace perfbench
