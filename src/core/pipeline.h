// The Figure-1 workflow: the five-step iterative operational testing loop.
//
//   Step 1 (RQ1, once):   learn the OP from an operational sample and
//                         synthesise the operational dataset; calibrate
//                         the naturalness threshold tau on it.
//   Step 2 (RQ2, loop):   weight-based seed sampling, guided after the
//                         first iteration by the assessor's per-cell
//                         allocation feedback.
//   Step 3 (RQ3, loop):   naturalness-guided fuzzing around each seed.
//   Step 4 (RQ4, loop):   OP-weighted adversarial retraining on the
//                         detected operational AEs.
//   Step 5 (RQ5, loop):   cell-based reliability assessment of the
//                         retrained model; stop when the upper credible
//                         bound on pmi meets the target, else feed the
//                         posterior back into step 2.
//
// Execution: the loop is sequential by design — each RQ5 assessment
// picks the next RQ2 seeds — and the parallelism lives inside the steps:
// learn (EM) and generate (one lane-chunk map over the seeds, folded in
// seed order) run chunk maps on the global pool, and retrain and assess
// reach it through their GEMMs. Results are bit-identical at any
// OPAD_THREADS value (test-pinned).
#pragma once

#include <functional>
#include <optional>

#include "attack/natural_fuzzer.h"
#include "core/assessor.h"
#include "core/retrainer.h"
#include "core/seed_sampler.h"
#include "core/test_generator.h"
#include "op/synthesizer.h"

namespace opad {

struct PipelineConfig {
  SynthesizerConfig rq1;
  SeedSamplerConfig rq2;
  NaturalFuzzerConfig rq3;  // rq3.tau is overwritten by calibration
  RetrainConfig rq4;
  AssessorConfig rq5;

  std::size_t seeds_per_iteration = 80;
  std::size_t max_iterations = 5;
  /// tau = this quantile of the naturalness scores of the operational
  /// dataset (see naturalness_threshold()).
  double naturalness_quantile = 0.05;
  /// Route the RQ5 posterior into RQ2 seed allocation.
  bool use_feedback_allocation = true;
  /// Total model-query budget for the whole run (attacks + assessment).
  std::uint64_t query_budget = 500000;
  /// Seeds per Attack::run_batch lane group in the RQ3 fuzzing step.
  /// Purely a batching knob: results are bit-identical at any width.
  std::size_t attack_lane_width = TestCaseGenerator::kDefaultLaneWidth;
  /// Cap on PipelineResult::all_aes (0 = retain everything). Detection
  /// stats stay uncapped — the cap bounds long-campaign memory, keeping
  /// the first `max_retained_aes` AEs in canonical seed order
  /// (regression-pinned).
  std::size_t max_retained_aes = 0;
};

struct IterationRecord {
  std::size_t iteration = 0;
  DetectionStats detection;
  RetrainResult retrain;
  Assessment assessment;
  std::uint64_t budget_used_total = 0;  // cumulative at end of iteration
};

struct PipelineResult {
  std::vector<IterationRecord> iterations;
  bool target_reached = false;
  std::uint64_t total_queries = 0;
  double tau = 0.0;
  std::vector<OperationalAE> all_aes;  // across iterations (capped)
  /// RQ1 GMM fit witness (empty when the OP model is a KDE): per-EM-
  /// iteration mean log-likelihood, bit-identical across thread counts.
  GmmFitTrace gmm_trace;
};

class OpTestingPipeline {
 public:
  explicit OpTestingPipeline(PipelineConfig config);

  /// Observation hook, called after each iteration (e.g. for logging true
  /// pmi against an external oracle in experiments).
  using IterationCallback =
      std::function<void(const IterationRecord&, Classifier&)>;

  /// Runs the loop on `model`, which is retrained in place.
  /// `operational_sample` is the observed (small, labelled) operational
  /// data from which the OP is learned.
  PipelineResult run(Classifier& model, const Dataset& operational_sample,
                     Rng& rng, const IterationCallback& callback = {}) const;

  const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
};

}  // namespace opad
