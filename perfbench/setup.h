// Workload inputs, built through the library's public API. The model
// under test is fixed, like a shipped model: its training data and
// weights come from kModelSeed. The run seed draws everything the
// testing sees (the operational sample, streams, request traffic and
// every random choice of the loops), so a seed changes the inputs but
// not the amount of work, and the same seed gives the same inputs.
#pragma once

#include <cstdint>
#include <memory>

#include "core/methods.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "harness.h"
#include "nn/model.h"
#include "op/synthesizer.h"

namespace perfbench {

inline constexpr std::uint64_t kModelSeed = 2021;

/// The 64-pixel synthetic-digits workload: balanced training and test
/// data, a skewed operational sample, and an MLP trained on the former.
/// learn_digits_op() adds the RQ1 profile, naturalness metric and tau.
struct Digits {
  opad::Dataset train;
  opad::Dataset test;
  opad::Dataset operational_sample;
  std::unique_ptr<opad::Classifier> model;
  opad::BallConfig ball;
  opad::OperationalLearningResult op;
  opad::NaturalnessPtr metric;
  double tau = 0.0;

  opad::MethodContext context() const;
};

Digits make_digits(std::uint64_t seed);

/// Learns the digits OP; returns the seconds learn_operational_profile
/// took.
double learn_digits_op(Digits& digits, std::uint64_t seed);

/// The 2-D three-class ring with skewed operational class priors, fully
/// prepared (model, learned OP, metric, tau).
struct Ring {
  std::shared_ptr<const opad::GaussianClustersGenerator> op_generator;
  opad::Dataset train;
  opad::Dataset test;
  opad::Dataset operational_sample;
  std::unique_ptr<opad::Classifier> model;
  opad::BallConfig ball;
  opad::OperationalLearningResult op;
  opad::NaturalnessPtr metric;
  double tau = 0.0;
  double learn_s = 0.0;  // time spent in learn_operational_profile

  opad::MethodContext context() const;
};

Ring make_ring(std::uint64_t seed);

/// Sub-seed `index` of the run seed, so every consumer draws its own
/// stream.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index);

/// Inputs an untraced fig1 or campaign run cycles through, one per set-up
/// repetition. How much work one draw of seeds makes (AEs found, fuzz
/// steps before success, rows retrained) differs from the next, so those
/// workloads time passes over several draws instead of resting on one.
inline constexpr std::size_t kVariants = kSetupReps;

/// Run seed of input variant `variant` of a run with seed `seed`.
std::uint64_t variant_seed(std::uint64_t seed, std::size_t variant);

}  // namespace perfbench
