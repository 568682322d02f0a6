#include "core/pipeline.h"

#include <algorithm>
#include <utility>

#include "attack/pgd.h"
#include "naturalness/density_naturalness.h"
#include "util/logging.h"

namespace opad {

OpTestingPipeline::OpTestingPipeline(PipelineConfig config)
    : config_(std::move(config)) {
  OPAD_EXPECTS(config_.seeds_per_iteration > 0);
  OPAD_EXPECTS(config_.max_iterations > 0);
  OPAD_EXPECTS(config_.naturalness_quantile >= 0.0 &&
               config_.naturalness_quantile <= 1.0);
  OPAD_EXPECTS(config_.query_budget > 0);
}

PipelineResult OpTestingPipeline::run(Classifier& model,
                                      const Dataset& operational_sample,
                                      Rng& rng,
                                      const IterationCallback& callback) const {
  OPAD_EXPECTS(!operational_sample.empty());
  PipelineResult result;
  BudgetTracker budget(config_.query_budget);

  // ---- Step 1 (RQ1): learn the OP, synthesise the operational dataset.
  OperationalLearningResult op = learn_operational_profile(
      operational_sample, config_.rq1, rng, &result.gmm_trace);
  const Dataset& op_data = op.operational_dataset;
  ProfilePtr profile = op.profile;

  // Naturalness = OP log-density (the paper's local-OP approximation);
  // calibrate tau on the operational dataset itself.
  auto metric = std::make_shared<DensityNaturalness>(profile);
  result.tau = naturalness_threshold(*metric, op_data.inputs(),
                                     config_.naturalness_quantile);

  // ---- Fixed machinery for the loop.
  SeedSampler sampler(config_.rq2, profile);

  NaturalFuzzerConfig fuzz_config = config_.rq3;
  fuzz_config.tau = result.tau;
  auto fuzzer =
      std::make_shared<NaturalnessGuidedFuzzer>(fuzz_config, metric);
  TestCaseGenerator generator(fuzzer, metric, result.tau, profile,
                              config_.attack_lane_width);

  AdversarialRetrainer retrainer(config_.rq4);

  // Cheap robustness probe for assessment: 1-restart short PGD.
  PgdConfig probe_config;
  probe_config.ball = config_.rq3.ball;
  probe_config.steps = std::max<std::size_t>(config_.rq3.steps / 2, 5);
  probe_config.restarts = 1;
  auto probe = std::make_shared<Pgd>(probe_config);
  ReliabilityAssessor assessor(config_.rq5, op_data, probe, rng);

  std::vector<std::size_t> allocation;  // RQ5 -> RQ2 feedback

  // ---- Steps 2-5, iterated.
  for (std::size_t iter = 0; iter < config_.max_iterations; ++iter) {
    if (budget.exhausted()) break;
    IterationRecord record;
    record.iteration = iter;

    // Step 2 (RQ2): seed selection.
    const std::size_t want =
        std::min(config_.seeds_per_iteration, op_data.size());
    std::vector<std::size_t> seeds;
    if (config_.use_feedback_allocation && !allocation.empty()) {
      seeds = sampler.sample_with_allocation(model, op_data,
                                             assessor.partition(),
                                             allocation, rng);
    } else {
      seeds = sampler.sample(model, op_data, want, rng);
    }

    // Step 3 (RQ3): naturalness-guided fuzzing.
    Detection detection =
        generator.generate(model, op_data, seeds, budget, rng);
    record.detection = detection.stats;

    // Step 4 (RQ4): OP-weighted adversarial retraining on op. AEs.
    std::vector<OperationalAE> op_aes;
    for (auto& ae : detection.aes) {
      if (ae.is_operational) op_aes.push_back(ae);
    }
    record.retrain = retrainer.retrain(model, op_data, op_aes, rng);
    // Retention cap: stats stay uncapped and retraining saw every
    // operational AE; only the retained list keeps a seed-order prefix.
    for (auto& ae : detection.aes) {
      if (config_.max_retained_aes != 0 &&
          result.all_aes.size() >= config_.max_retained_aes) {
        break;
      }
      result.all_aes.push_back(std::move(ae));
    }

    // Step 5 (RQ5): assess the retrained model; stopping rule+feedback.
    record.assessment = assessor.assess(model, op_data, budget, rng);
    allocation = assessor.feedback_allocation(config_.seeds_per_iteration);

    record.budget_used_total = budget.used();
    result.iterations.push_back(record);
    if (callback) callback(result.iterations.back(), model);

    OPAD_DEBUG << "pipeline iter " << iter << ": AEs "
               << record.detection.aes_found << " (op "
               << record.detection.operational_aes << "), pmi upper "
               << record.assessment.pmi_upper;

    if (record.assessment.target_met) {
      result.target_reached = true;
      break;
    }
  }
  result.total_queries = budget.used();
  return result;
}

}  // namespace opad
