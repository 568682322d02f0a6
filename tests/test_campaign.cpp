#include "core/campaign.h"

#include <gtest/gtest.h>

#include <string>

#include "naturalness/density_naturalness.h"
#include "nn/metrics.h"
#include "nn/serialize.h"
#include "op/generator_profile.h"
#include "test_helpers.h"
#include "util/parallel.h"

namespace opad {
namespace {

/// Restores the global pool to its OPAD_THREADS / hardware default when a
/// thread-count-sweeping test exits (also on failure).
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::configure_global(0); }
};

void expect_stats_equal(const DetectionStats& a, const DetectionStats& b) {
  EXPECT_EQ(a.seeds_attacked, b.seeds_attacked);
  EXPECT_EQ(a.aes_found, b.aes_found);
  EXPECT_EQ(a.clean_failures, b.clean_failures);
  EXPECT_EQ(a.operational_aes, b.operational_aes);
  EXPECT_EQ(a.queries_used, b.queries_used);
}

TEST(DetectionStats, PlusEqualsFoldsEveryField) {
  DetectionStats a;
  a.seeds_attacked = 3;
  a.aes_found = 2;
  a.clean_failures = 1;
  a.operational_aes = 1;
  a.queries_used = 40;
  DetectionStats b;
  b.seeds_attacked = 5;
  b.aes_found = 1;
  b.clean_failures = 0;
  b.operational_aes = 1;
  b.queries_used = 17;
  a += b;
  EXPECT_EQ(a.seeds_attacked, 8u);
  EXPECT_EQ(a.aes_found, 3u);
  EXPECT_EQ(a.clean_failures, 1u);
  EXPECT_EQ(a.operational_aes, 2u);
  EXPECT_EQ(a.queries_used, 57u);
}

TEST(Detection, PlusEqualsMovesAesAndFoldsStats) {
  Detection a;
  a.stats.aes_found = 1;
  a.aes.emplace_back();
  a.aes.back().label = 1;
  Detection b;
  b.stats.aes_found = 2;
  b.aes.emplace_back();
  b.aes.back().label = 2;
  b.aes.emplace_back();
  b.aes.back().label = 3;
  a += std::move(b);
  EXPECT_EQ(a.stats.aes_found, 3u);
  ASSERT_EQ(a.aes.size(), 3u);
  EXPECT_EQ(a.aes[0].label, 1);
  EXPECT_EQ(a.aes[1].label, 2);
  EXPECT_EQ(a.aes[2].label, 3);
}

class CampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new testing::RingTask(testing::make_ring_task(500, 200, 81));
    Rng rng(82);
    model_ = new Classifier(testing::train_mlp(task_->train, 20, 18, rng));
    auto op_gen = task_->generator.with_class_priors({0.6, 0.3, 0.1});
    op_data_ = new Dataset(op_gen.make_dataset(400, rng));
    profile_ = std::make_shared<GaussianGeneratorProfile>(op_gen);
    metric_ = std::make_shared<DensityNaturalness>(profile_);
    tau_ = naturalness_threshold(*metric_, op_data_->inputs(), 0.25);
  }
  static void TearDownTestSuite() {
    delete op_data_;
    delete model_;
    delete task_;
    op_data_ = nullptr;
    model_ = nullptr;
    task_ = nullptr;
    profile_.reset();
    metric_.reset();
  }

  MethodContext context() const {
    MethodContext ctx;
    ctx.seeds.balanced = &task_->test;
    ctx.seeds.operational = op_data_;
    ctx.seeds.observed = op_data_;
    ctx.profile = profile_;
    ctx.metric = metric_;
    ctx.tau = tau_;
    ctx.ball.eps = 0.4f;
    ctx.ball.input_lo = -5.0f;
    ctx.ball.input_hi = 5.0f;
    return ctx;
  }

  static testing::RingTask* task_;
  static Classifier* model_;
  static Dataset* op_data_;
  static ProfilePtr profile_;
  static NaturalnessPtr metric_;
  static double tau_;
};

testing::RingTask* CampaignTest::task_ = nullptr;
Classifier* CampaignTest::model_ = nullptr;
Dataset* CampaignTest::op_data_ = nullptr;
ProfilePtr CampaignTest::profile_;
NaturalnessPtr CampaignTest::metric_;
double CampaignTest::tau_ = 0.0;

TEST_F(CampaignTest, RunsRequestedRoundsAndAccounts) {
  const auto snapshot = snapshot_parameters(model_->network());
  CampaignConfig config;
  config.rounds = 3;
  config.query_budget = 6000;
  const auto opad = make_opad_method(MethodSuiteConfig{});
  const CampaignResult result = run_detect_retrain_campaign(
      *model_, *opad, context(), *op_data_, config);
  restore_parameters(model_->network(), snapshot);

  ASSERT_EQ(result.rounds.size(), 3u);
  std::size_t aes = 0;
  std::uint64_t queries = 0;
  for (const auto& round : result.rounds) {
    aes += round.detection.aes_found;
    queries += round.detection.queries_used;
    EXPECT_GT(round.detection.seeds_attacked, 0u);
  }
  EXPECT_EQ(result.totals.aes_found, aes);
  EXPECT_EQ(result.totals.queries_used, queries);
  EXPECT_LE(result.totals.operational_aes, result.totals.aes_found);
}

TEST_F(CampaignTest, RetrainingReducesSubsequentFindings) {
  const auto snapshot = snapshot_parameters(model_->network());
  CampaignConfig config;
  config.rounds = 4;
  config.query_budget = 16000;
  config.retrain.epochs = 5;
  config.retrain.ae_emphasis = 4.0;
  const auto opad = make_opad_method(MethodSuiteConfig{});
  const CampaignResult result = run_detect_retrain_campaign(
      *model_, *opad, context(), *op_data_, config);
  restore_parameters(model_->network(), snapshot);

  // The campaign fixes what it finds: later rounds find fewer AEs per
  // seed than the first round.
  const auto& first = result.rounds.front().detection;
  const auto& last = result.rounds.back().detection;
  const double first_rate = static_cast<double>(first.aes_found) /
                            std::max<std::size_t>(first.seeds_attacked, 1);
  const double last_rate = static_cast<double>(last.aes_found) /
                           std::max<std::size_t>(last.seeds_attacked, 1);
  EXPECT_LT(last_rate, first_rate);
}

TEST_F(CampaignTest, DeterministicGivenSeed) {
  const auto snapshot = snapshot_parameters(model_->network());
  CampaignConfig config;
  config.rounds = 2;
  config.query_budget = 4000;
  config.base_seed = 99;
  const auto opad = make_opad_method(MethodSuiteConfig{});

  const CampaignResult a = run_detect_retrain_campaign(
      *model_, *opad, context(), *op_data_, config);
  restore_parameters(model_->network(), snapshot);
  const CampaignResult b = run_detect_retrain_campaign(
      *model_, *opad, context(), *op_data_, config);
  restore_parameters(model_->network(), snapshot);

  EXPECT_EQ(a.totals.aes_found, b.totals.aes_found);
  EXPECT_EQ(a.totals.queries_used, b.totals.queries_used);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].detection.aes_found,
              b.rounds[i].detection.aes_found);
  }
}

TEST_F(CampaignTest, BitIdenticalAcrossThreadCounts) {
  // Golden run: every per-round stat, the retrain losses and the totals
  // are bit-identical at 1 and 8 threads.
  GlobalPoolGuard guard;
  const auto snapshot = snapshot_parameters(model_->network());
  CampaignConfig config;
  config.rounds = 3;
  config.query_budget = 6000;
  config.base_seed = 17;
  config.retrain.epochs = 2;
  const auto opad = make_opad_method(MethodSuiteConfig{});
  const auto run_at = [&](std::size_t threads) {
    ThreadPool::configure_global(threads);
    CampaignResult result = run_detect_retrain_campaign(
        *model_, *opad, context(), *op_data_, config);
    restore_parameters(model_->network(), snapshot);
    return result;
  };
  const CampaignResult baseline = run_at(1);
  const CampaignResult wide = run_at(8);
  EXPECT_GT(baseline.totals.queries_used, 0u);

  expect_stats_equal(baseline.totals, wide.totals);
  ASSERT_EQ(baseline.rounds.size(), wide.rounds.size());
  for (std::size_t i = 0; i < baseline.rounds.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    const CampaignRound& a = baseline.rounds[i];
    const CampaignRound& b = wide.rounds[i];
    EXPECT_EQ(a.round, b.round);
    expect_stats_equal(a.detection, b.detection);
    EXPECT_EQ(a.retrain.ae_count, b.retrain.ae_count);
    EXPECT_EQ(a.retrain.clean_count, b.retrain.clean_count);
    EXPECT_EQ(a.retrain.final_loss, b.retrain.final_loss);
  }
}

TEST_F(CampaignTest, ValidatesConfig) {
  CampaignConfig config;
  config.rounds = 0;
  const auto opad = make_opad_method(MethodSuiteConfig{});
  EXPECT_THROW(run_detect_retrain_campaign(*model_, *opad, context(),
                                           *op_data_, config),
               PreconditionError);
}

TEST_F(CampaignTest, MifgsmMethodAlsoWorks) {
  const auto snapshot = snapshot_parameters(model_->network());
  CampaignConfig config;
  config.rounds = 2;
  config.query_budget = 4000;
  const auto mifgsm = make_mifgsm_uniform_method(MethodSuiteConfig{});
  const CampaignResult result = run_detect_retrain_campaign(
      *model_, *mifgsm, context(), *op_data_, config);
  restore_parameters(model_->network(), snapshot);
  EXPECT_EQ(result.rounds.size(), 2u);
  EXPECT_GT(result.totals.queries_used, 0u);
}

}  // namespace
}  // namespace opad
