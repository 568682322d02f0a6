// Detector-zoo tests: the Detector interface contract, the activation
// capture hook, per-detector bit-identity across threads and batch
// composition, adaptive (detector-aware) attacks, and the campaign /
// serve integrations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "attack/pgd.h"
#include "core/methods.h"
#include "detect/density_detector.h"
#include "detect/zoo.h"
#include "naturalness/density_naturalness.h"
#include "serve/detector.h"
#include "serve/service.h"
#include "test_helpers.h"
#include "util/distributions.h"
#include "util/parallel.h"

namespace opad {
namespace {

struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::configure_global(0); }
};

void expect_tensor_bytes_eq(const Tensor& a, const Tensor& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.size() * sizeof(float)),
            0)
      << what;
}

class DetectTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new testing::RingTask(testing::make_ring_task(600, 200, 181));
    Rng rng(182);
    model_ = new Classifier(testing::train_mlp(task_->train, 24, 25, rng));
    // Skewed operational pool, as in the campaign experiments.
    auto op_generator = task_->generator.with_class_priors({0.6, 0.3, 0.1});
    op_data_ = new Dataset(op_generator.make_dataset(400, rng));
    ClassConditionalConfig config;
    config.gmm.components = 2;
    profile_ = std::make_shared<ClassConditionalProfile>(
        ClassConditionalProfile::fit(task_->train, config, rng));

    zoo_ = new std::vector<DetectorPtr>();
    DetectorZooConfig zc = zoo_config();
    Rng fit_rng(183);
    for (auto& owned : detector_zoo(zc, *model_, profile_)) {
      if (!owned->fitted()) owned->fit(task_->train, fit_rng);
      // Calibrate on data disjoint from the fit reference.
      owned->calibrate(task_->test, 0.05);
      zoo_->push_back(DetectorPtr(std::move(owned)));
    }
  }

  static void TearDownTestSuite() {
    delete zoo_;
    delete op_data_;
    delete model_;
    delete task_;
    zoo_ = nullptr;
    op_data_ = nullptr;
    model_ = nullptr;
    task_ = nullptr;
    profile_.reset();
  }

  /// Ring inputs live in roughly [-4, 4]: widen the squeeze range (the
  /// default [0, 1] grid would clamp everything) and keep mutation cheap.
  static DetectorZooConfig zoo_config() {
    DetectorZooConfig zc;
    zc.squeeze.input_lo = -5.0f;
    zc.squeeze.input_hi = 5.0f;
    zc.mutation.replicas = 16;
    zc.lid.max_reference = 256;
    return zc;
  }

  static const DetectorPtr& find(const std::string& name) {
    for (const DetectorPtr& d : *zoo_) {
      if (d->name() == name) return d;
    }
    ADD_FAILURE() << "no detector named " << name;
    static DetectorPtr null;
    return null;
  }

  /// First n test rows as one batch.
  static Tensor make_inputs(std::size_t n) {
    Tensor inputs({n, task_->test.dim()});
    for (std::size_t i = 0; i < n; ++i) {
      inputs.set_row(i, task_->test.row(i));
    }
    return inputs;
  }

  MethodContext context() const {
    MethodContext ctx;
    ctx.seeds.balanced = &task_->test;
    ctx.seeds.operational = op_data_;
    ctx.profile = profile_;
    ctx.metric = std::make_shared<DensityNaturalness>(profile_);
    ctx.tau = naturalness_threshold(*ctx.metric, op_data_->inputs(), 0.05);
    ctx.ball.eps = 0.4f;
    ctx.ball.input_lo = -5.0f;
    ctx.ball.input_hi = 5.0f;
    return ctx;
  }

  static testing::RingTask* task_;
  static Classifier* model_;
  static Dataset* op_data_;
  static ProfilePtr profile_;
  static std::vector<DetectorPtr>* zoo_;
};

testing::RingTask* DetectTest::task_ = nullptr;
Classifier* DetectTest::model_ = nullptr;
Dataset* DetectTest::op_data_ = nullptr;
ProfilePtr DetectTest::profile_;
std::vector<DetectorPtr>* DetectTest::zoo_ = nullptr;

// ---------------------------------------------------------------------------
// Activation capture hook.

TEST_F(DetectTest, TapeDoesNotPerturbForward) {
  const Tensor inputs = make_inputs(16);
  Classifier a = model_->clone();
  Classifier b = model_->clone();
  const Tensor plain = a.logits(inputs);
  ActivationTape tape;
  const Tensor taped = b.logits(inputs, &tape);
  expect_tensor_bytes_eq(plain, taped, "logits with vs without tape");
  ASSERT_EQ(tape.layer_count(), model_->network().layer_count());
  // The last recorded activation is the logits themselves.
  expect_tensor_bytes_eq(tape.layers.back(), taped, "last tape layer");
  // Both passes charge the same query count.
  EXPECT_EQ(a.query_count(), b.query_count());
}

TEST_F(DetectTest, TapeInvariantAcrossThreadsAndBatchComposition) {
  GlobalPoolGuard guard;
  const std::size_t n = 12;
  const Tensor inputs = make_inputs(n);

  // Reference: serial, per-row tapes.
  ThreadPool::configure_global(1);
  Classifier serial = model_->clone();
  std::vector<ActivationTape> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    serial.logits(inputs.row(i).reshaped({1, inputs.dim(1)}), &rows[i]);
  }

  for (int threads : {1, 8}) {
    ThreadPool::configure_global(threads);
    Classifier replica = model_->clone();
    ActivationTape tape;
    replica.logits(inputs, &tape);
    ASSERT_EQ(tape.layer_count(), rows[0].layer_count());
    for (std::size_t l = 0; l < tape.layer_count(); ++l) {
      ASSERT_EQ(tape.layers[l].dim(0), n);
      for (std::size_t r = 0; r < n; ++r) {
        expect_tensor_bytes_eq(
            tape.layers[l].row(r), rows[r].layers[l].row(0),
            "layer " + std::to_string(l) + " row " + std::to_string(r) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Interface contract.

TEST_F(DetectTest, DensityDetectorMatchesProfileBitwise) {
  const DetectorPtr& density = find("Density");
  const Tensor inputs = make_inputs(24);
  std::vector<double> scores(24);
  density->score_batch(inputs, scores);
  for (std::size_t r = 0; r < 24; ++r) {
    EXPECT_EQ(scores[r], profile_->log_density(inputs.row(r)))
        << "row " << r;
  }
  ASSERT_TRUE(density->has_gradient());
  const Tensor x = inputs.row(0);
  expect_tensor_bytes_eq(density->score_gradient(x),
                         profile_->log_density_gradient(x),
                         "density score gradient");
}

TEST_F(DetectTest, CalibrateSetsEmpiricalQuantileThreshold) {
  for (const DetectorPtr& d : *zoo_) {
    std::vector<double> scores(task_->test.size());
    d->score_batch(task_->test.inputs(), scores);
    EXPECT_EQ(d->threshold(), quantile(std::move(scores), 0.05)) << d->name();
    EXPECT_TRUE(std::isfinite(d->threshold())) << d->name();
  }
}

TEST_F(DetectTest, ScoresBitIdenticalAcrossThreadsAndComposition) {
  GlobalPoolGuard guard;
  const std::size_t n = 32;
  const Tensor inputs = make_inputs(n);

  for (const DetectorPtr& d : *zoo_) {
    ThreadPool::configure_global(1);
    std::vector<double> reference(n);
    d->score_batch(inputs, reference);

    for (int threads : {1, 8}) {
      ThreadPool::configure_global(threads);
      // Whole batch.
      std::vector<double> whole(n);
      d->score_batch(inputs, whole);
      // Two halves, scored separately.
      const std::size_t half = n / 2;
      Tensor lo({half, inputs.dim(1)});
      Tensor hi({n - half, inputs.dim(1)});
      for (std::size_t r = 0; r < half; ++r) lo.set_row(r, inputs.row(r).data());
      for (std::size_t r = half; r < n; ++r) {
        hi.set_row(r - half, inputs.row(r).data());
      }
      std::vector<double> split(n);
      d->score_batch(lo, std::span(split).subspan(0, half));
      d->score_batch(hi, std::span(split).subspan(half));
      for (std::size_t r = 0; r < n; ++r) {
        EXPECT_EQ(whole[r], reference[r])
            << d->name() << " row " << r << " threads=" << threads;
        EXPECT_EQ(split[r], reference[r])
            << d->name() << " split row " << r << " threads=" << threads;
      }
      // Rank-1 convenience path.
      EXPECT_EQ(d->score(inputs.row(0)), reference[0])
          << d->name() << " threads=" << threads;
    }
  }
}

TEST_F(DetectTest, ThreadReplicaScoresBitIdentical) {
  const std::size_t n = 16;
  const Tensor inputs = make_inputs(n);
  for (const DetectorPtr& d : *zoo_) {
    const DetectorPtr replica = thread_local_detector(d);
    ASSERT_NE(replica, nullptr) << d->name();
    std::vector<double> original(n), replicated(n);
    d->score_batch(inputs, original);
    replica->score_batch(inputs, replicated);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(original[r], replicated[r]) << d->name() << " row " << r;
    }
    EXPECT_EQ(replica->threshold(), d->threshold()) << d->name();
  }
}

TEST_F(DetectTest, MutationFitDeterministicGivenSeed) {
  MutationConfig mc;
  mc.replicas = 8;
  MutationDetector a(*model_, mc);
  MutationDetector b(*model_, mc);
  Rng rng_a(7), rng_b(7);
  a.fit(task_->train, rng_a);
  b.fit(task_->train, rng_b);
  const Tensor inputs = make_inputs(20);
  std::vector<double> sa(20), sb(20);
  a.score_batch(inputs, sa);
  b.score_batch(inputs, sb);
  for (std::size_t r = 0; r < 20; ++r) EXPECT_EQ(sa[r], sb[r]);
}

TEST_F(DetectTest, SqueezersAreWellBehaved) {
  SqueezeConfig sc = zoo_config().squeeze;
  const Tensor inputs = make_inputs(8);
  const Tensor quantised = squeeze_bit_depth(inputs, sc);
  const float levels = static_cast<float>((1 << sc.bits) - 1);
  const float step = (sc.input_hi - sc.input_lo) / levels;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    // Quantisation never moves a value more than half a grid step.
    EXPECT_LE(std::abs(quantised.data()[i] - inputs.data()[i]),
              0.5f * step + 1e-6f);
  }
  // A constant row is a fixed point of the median filter.
  Tensor flat({1, inputs.dim(1)});
  for (float& v : flat.data()) v = 1.25f;
  const Tensor filtered = squeeze_median_filter(flat, sc);
  for (float v : filtered.data()) EXPECT_EQ(v, 1.25f);
}

TEST_F(DetectTest, FactoryBuildsZooAndRejectsUnknown) {
  const auto& names = detector_names();
  ASSERT_EQ(names.size(), 4u);
  const DetectorZooConfig zc = zoo_config();
  for (const std::string& name : names) {
    const auto d = make_detector(name, zc, *model_, profile_);
    EXPECT_EQ(d->name(), name);
    EXPECT_EQ(d->dim(), model_->input_dim());
  }
  // A supplied profile makes the density detector fitted immediately.
  EXPECT_TRUE(make_detector("Density", zc, *model_, profile_)->fitted());
  EXPECT_FALSE(make_detector("Density", zc, *model_)->fitted());
  EXPECT_THROW(make_detector("Mahalanobis", zc, *model_), PreconditionError);
}

TEST_F(DetectTest, DetectorNaturalnessIsAPassthrough) {
  const DetectorPtr& density = find("Density");
  const DetectorNaturalness metric(density);
  const Tensor x = make_inputs(1).row(0);
  EXPECT_EQ(metric.dim(), density->dim());
  EXPECT_EQ(metric.score(x), density->score(x));
  ASSERT_TRUE(metric.has_gradient());
  expect_tensor_bytes_eq(metric.score_gradient(x),
                         density->score_gradient(x), "metric gradient");
  // Shareable detector => shareable metric; model-backed => replica.
  EXPECT_EQ(metric.thread_replica(), nullptr);
  const DetectorNaturalness lid_metric(find("LID"));
  const auto replica = lid_metric.thread_replica();
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->score(x), lid_metric.score(x));
}

// ---------------------------------------------------------------------------
// Separation: the zoo actually detects ball AEs on this task.

TEST_F(DetectTest, DetectorsScoreAdversarialBelowClean) {
  PgdConfig pc;
  pc.ball.eps = 0.4f;
  pc.ball.input_lo = -5.0f;
  pc.ball.input_hi = 5.0f;
  pc.steps = 20;
  pc.restarts = 3;
  const Pgd attack(pc);

  Classifier model = model_->clone();
  std::vector<Tensor> clean, adversarial;
  for (std::size_t i = 0; i < task_->test.size() && adversarial.size() < 40;
       ++i) {
    Rng rng(300 + i);
    const Tensor seed = task_->test.sample(i).x;
    const AttackResult result =
        attack.run(model, seed, task_->test.label(i), rng);
    if (!result.success) continue;
    clean.push_back(seed);
    adversarial.push_back(result.adversarial);
  }
  ASSERT_GE(adversarial.size(), 10u) << "PGD should crack this MLP easily";

  Tensor clean_batch({clean.size(), model.input_dim()});
  Tensor ae_batch({adversarial.size(), model.input_dim()});
  for (std::size_t i = 0; i < clean.size(); ++i) {
    clean_batch.set_row(i, clean[i].data());
    ae_batch.set_row(i, adversarial[i].data());
  }
  for (const DetectorPtr& d : *zoo_) {
    std::vector<double> clean_scores(clean.size()), ae_scores(clean.size());
    d->score_batch(clean_batch, clean_scores);
    d->score_batch(ae_batch, ae_scores);
    double clean_mean = 0.0, ae_mean = 0.0;
    for (double s : clean_scores) clean_mean += s / clean_scores.size();
    for (double s : ae_scores) ae_mean += s / ae_scores.size();
    EXPECT_LT(ae_mean, clean_mean)
        << d->name() << ": adversarial inputs should score less benign";
  }
}

// ---------------------------------------------------------------------------
// Adaptive attacks.

TEST_F(DetectTest, AdaptivePgdBitIdenticalSerialVsBatchAcrossThreads) {
  GlobalPoolGuard guard;
  const DetectorPtr& density = find("Density");
  PgdConfig pc;
  pc.ball.eps = 0.4f;
  pc.ball.input_lo = -5.0f;
  pc.ball.input_hi = 5.0f;
  pc.steps = 10;
  pc.restarts = 2;
  pc.evasion = EvasionTerm{std::make_shared<DetectorNaturalness>(density), 0.5};
  const Pgd attack(pc);
  EXPECT_EQ(attack.name(), "PGD-Evade");

  const std::size_t n = 6;
  const Tensor seeds = make_inputs(n);
  std::vector<int> labels(task_->test.labels().begin(),
                          task_->test.labels().begin() + n);

  ThreadPool::configure_global(1);
  Classifier serial_model = model_->clone();
  std::vector<AttackResult> serial;
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(91 + i);
    serial.push_back(
        attack.run(serial_model, seeds.row(i), labels[i], rng));
  }

  for (int threads : {1, 8}) {
    ThreadPool::configure_global(threads);
    Classifier batch_model = model_->clone();
    std::vector<Rng> rngs;
    for (std::size_t i = 0; i < n; ++i) rngs.emplace_back(91 + i);
    const std::vector<AttackResult> batch =
        attack.run_batch(batch_model, seeds, labels, rngs);
    ASSERT_EQ(batch.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i].success, serial[i].success) << i;
      EXPECT_EQ(batch[i].linf_distance, serial[i].linf_distance) << i;
      EXPECT_EQ(batch[i].queries, serial[i].queries) << i;
      expect_tensor_bytes_eq(batch[i].adversarial, serial[i].adversarial,
                             "lane " + std::to_string(i) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(DetectTest, EvasionTermRaisesDetectorScoreOfFoundAes) {
  const DetectorPtr& density = find("Density");
  PgdConfig plain;
  plain.ball.eps = 0.4f;
  plain.ball.input_lo = -5.0f;
  plain.ball.input_hi = 5.0f;
  plain.steps = 20;
  plain.restarts = 3;
  plain.steps = 30;
  plain.restarts = 4;
  PgdConfig evade = plain;
  evade.evasion =
      EvasionTerm{std::make_shared<DetectorNaturalness>(density), 0.5};

  Classifier model = model_->clone();
  double plain_total = 0.0, evade_total = 0.0;
  std::size_t paired = 0;
  for (std::size_t i = 0; i < task_->test.size() && paired < 30; ++i) {
    Rng rng_plain(500 + i), rng_evade(500 + i);
    const Tensor seed = task_->test.sample(i).x;
    const int label = task_->test.label(i);
    const AttackResult a = Pgd(plain).run(model, seed, label, rng_plain);
    const AttackResult b = Pgd(evade).run(model, seed, label, rng_evade);
    if (!a.success || !b.success) continue;
    plain_total += density->score(a.adversarial);
    evade_total += density->score(b.adversarial);
    ++paired;
  }
  ASSERT_GE(paired, 8u);
  EXPECT_GT(evade_total, plain_total)
      << "the evasion term should steer AEs toward benign detector scores";
}

TEST_F(DetectTest, EvasionTermValidation) {
  PgdConfig pc;
  pc.evasion = EvasionTerm{nullptr, 0.5};
  EXPECT_THROW(Pgd{pc}, PreconditionError);
  // Non-differentiable scorers cannot power a gradient evasion term.
  pc.evasion =
      EvasionTerm{std::make_shared<DetectorNaturalness>(find("LID")), 0.5};
  EXPECT_THROW(Pgd{pc}, PreconditionError);
}

// ---------------------------------------------------------------------------
// Campaign and factory integration.

TEST_F(DetectTest, DetectorMethodRunsTransferAndAdaptive) {
  Rng rng(601);
  DetectorMethodConfig mc;
  mc.campaign_batch = 16;
  for (const char* name : {"Density", "MutationScore"}) {
    for (bool adaptive : {false, true}) {
      mc.adaptive = adaptive;
      const MethodPtr method = make_detector_method(find(name), mc);
      EXPECT_EQ(method->name(),
                name + (adaptive ? std::string("-Adaptive")
                                 : std::string("-Transfer")));
      const Detection d = method->detect(*model_, context(), 6000, rng);
      EXPECT_GT(d.stats.seeds_attacked, 0u) << method->name();
      // operational_aes counts *evasions* here: AEs the detector scores
      // at or above its own threshold.
      EXPECT_LE(d.stats.operational_aes, d.stats.aes_found) << method->name();
    }
  }
}

TEST_F(DetectTest, AdaptiveAttackEvadesMoreThanTransfer) {
  DetectorMethodConfig mc;
  mc.campaign_batch = 16;
  // Use a *strict* detector (median clean score as threshold): evading it
  // takes real work, which is where detector-awareness shows up. At the
  // lax 5% FPR threshold most transfer AEs already pass and the
  // comparison degenerates into a coin flip.
  auto strict = std::make_shared<DensityDetector>(profile_);
  strict->calibrate(*op_data_, 0.5);
  const DetectorPtr density = strict;
  std::size_t transfer_evasions = 0, adaptive_evasions = 0;
  Rng rng(602);
  for (int rep = 0; rep < 3; ++rep) {
    mc.adaptive = false;
    transfer_evasions += make_detector_method(density, mc)
                             ->detect(*model_, context(), 8000, rng)
                             .stats.operational_aes;
    mc.adaptive = true;
    adaptive_evasions += make_detector_method(density, mc)
                             ->detect(*model_, context(), 8000, rng)
                             .stats.operational_aes;
  }
  EXPECT_GE(adaptive_evasions, transfer_evasions)
      << "Carlini-Wagner direction: detector-aware attacks evade at least "
         "as often as oblivious transfer attacks";
}

TEST_F(DetectTest, MakeMethodFactory) {
  const MethodSuiteConfig config;
  for (const char* name :
       {"OpAD", "OpAD-NoGrad", "PGD-Uniform", "MIFGSM-Uniform", "RandomFuzz",
        "GeneticFuzz", "OperationalTest"}) {
    EXPECT_EQ(make_method(name, config)->name(), name);
  }
  EXPECT_THROW(make_method("CleverHans", config), PreconditionError);
}

TEST_F(DetectTest, SeedSourcesPrecedence) {
  SeedSources seeds;
  EXPECT_FALSE(seeds.has_balanced());
  EXPECT_FALSE(seeds.has_operational());
  EXPECT_FALSE(seeds.has_stream());
  EXPECT_THROW(seeds.balanced_pool(), PreconditionError);
  EXPECT_THROW(seeds.operational_pool(), PreconditionError);
  EXPECT_THROW(seeds.observed_pool(), PreconditionError);

  seeds.operational = op_data_;
  // observed_pool falls back to the operational pool...
  EXPECT_EQ(&seeds.observed_pool(), op_data_);
  // ...until real observed executions are supplied.
  seeds.observed = &task_->test;
  EXPECT_EQ(&seeds.observed_pool(), &task_->test);
  seeds.balanced = &task_->train;
  EXPECT_EQ(&seeds.balanced_pool(), &task_->train);
}

// ---------------------------------------------------------------------------
// Serving any zoo detector.

TEST_F(DetectTest, ServiceServesZooDetector) {
  const DetectorPtr& mutation = find("MutationScore");
  serve::ServiceConfig config;
  config.max_batch = 8;
  serve::DetectionService service(model_->clone(), mutation, config);
  service.start();

  const std::size_t n = 12;
  const Tensor inputs = make_inputs(n);
  std::vector<std::future<serve::DetectResult>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(service.submit(inputs.row(i)));
  }
  std::vector<serve::DetectResult> got;
  for (auto& f : futures) got.push_back(f.get());
  service.stop();

  // Reference: one direct batched pass.
  Classifier reference_model = model_->clone();
  std::vector<serve::DetectResult> want(n);
  serve::score_batch(reference_model, *mutation, inputs, want);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].label, want[i].label) << i;
    EXPECT_EQ(got[i].naturalness, want[i].naturalness) << i;
    EXPECT_EQ(got[i].natural, want[i].natural) << i;
  }

  // Accessors: non-density snapshots expose no profile.
  EXPECT_EQ(service.detector()->name(), "MutationScore");
  EXPECT_EQ(service.profile(), nullptr);
  EXPECT_EQ(service.tau(), mutation->threshold());
}

TEST_F(DetectTest, ServiceDensityAccessorsStillWork) {
  const DetectorPtr& density = find("Density");
  serve::ServiceConfig config;
  serve::DetectionService service(model_->clone(), density, config);
  EXPECT_EQ(service.profile(), profile_);
  EXPECT_EQ(service.tau(), density->threshold());
}

}  // namespace
}  // namespace opad
