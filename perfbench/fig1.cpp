// fig1 — the paper's Figure-1 loop end to end: OpTestingPipeline::run on
// the digits workload with the F1 configuration and a target pmi no run
// can reach, so every run does max_iterations iterations. Batch-1
// fuzzing dominates; serve and stream code does nothing here.
//
// The pipeline builds its own metric and generator, so the traced run
// replays the loop through the public step calls (learn, sample,
// generate, retrain, assess) with a timing decorator on the naturalness
// metric, and checks that the replay reproduces the run's queries, AEs
// and claims. An untraced run times passes over kVariants inputs and
// checks every pipeline run against its own input's replay.
#include <algorithm>
#include <iostream>

#include "attack/pgd.h"
#include "core/pipeline.h"
#include "decorators.h"
#include "naturalness/density_naturalness.h"
#include "probes.h"
#include "setup.h"
#include "workloads.h"

namespace perfbench {

using namespace opad;

namespace {

PipelineConfig fig1_config(const BallConfig& ball) {
  PipelineConfig c;
  c.rq1.synthetic_size = 1200;
  c.rq1.gmm.components = 10;
  c.rq1.gmm.max_iterations = 40;
  c.rq1.gmm.tolerance = 0.0;  // same EM work for every seed
  c.rq3.ball = ball;
  c.rq3.steps = 12;
  c.rq3.restarts = 2;
  c.rq3.lambda = 0.5;
  c.rq4.epochs = 4;
  c.rq4.ae_emphasis = 3.0;
  c.rq5.bins_per_dim = 4;
  c.rq5.grid_dims = 2;
  c.rq5.probes_per_assessment = 150;
  c.rq5.target_pmi = 1e-6;  // unreachable: the stopping rule never fires
  c.seeds_per_iteration = 120;
  c.max_iterations = 6;
  c.query_budget = 100'000'000;  // never binding
  return c;
}

/// What a run must reproduce: query spend, AE counts and every claim.
struct Outcome {
  std::uint64_t queries = 0;
  std::size_t seeds = 0;
  std::size_t aes = 0;
  std::size_t op_aes = 0;
  std::vector<double> pmi_upper;  // per iteration

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const PipelineResult& result) {
  Outcome o;
  o.queries = result.total_queries;
  for (const IterationRecord& record : result.iterations) {
    o.seeds += record.detection.seeds_attacked;
    o.aes += record.detection.aes_found;
    o.op_aes += record.detection.operational_aes;
    o.pmi_upper.push_back(record.assessment.pmi_upper);
  }
  return o;
}

struct StepTimes {
  double learn = 0.0;
  double sample = 0.0;
  double generate = 0.0;
  double retrain = 0.0;
  double assess = 0.0;
};

/// Seconds `fn()` takes, added to `total`.
template <typename Fn>
void timed(double& total, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  total += seconds_between(start, Clock::now());
}

/// The Figure-1 loop through its public step calls, serially, consuming
/// `rng` exactly as OpTestingPipeline::run does. A non-null `clock`
/// decorates the naturalness metric.
Outcome replay(const PipelineConfig& cfg, Classifier& model,
               const Dataset& operational_sample, Rng& rng,
               const std::shared_ptr<LayerClock>& clock, StepTimes& t) {
  BudgetTracker budget(cfg.query_budget);
  OperationalLearningResult op;
  timed(t.learn, [&] {
    op = learn_operational_profile(operational_sample, cfg.rq1, rng);
  });
  const Dataset& op_data = op.operational_dataset;
  NaturalnessPtr metric = std::make_shared<DensityNaturalness>(op.profile);
  if (clock) metric = std::make_shared<TimedMetric>(metric, clock);
  const double tau = naturalness_threshold(*metric, op_data.inputs(),
                                           cfg.naturalness_quantile);

  const SeedSampler sampler(cfg.rq2, op.profile);
  NaturalFuzzerConfig fuzz = cfg.rq3;
  fuzz.tau = tau;
  const TestCaseGenerator generator(
      std::make_shared<NaturalnessGuidedFuzzer>(fuzz, metric), metric, tau,
      op.profile, cfg.attack_lane_width);
  const AdversarialRetrainer retrainer(cfg.rq4);
  PgdConfig probe;
  probe.ball = cfg.rq3.ball;
  probe.steps = std::max<std::size_t>(cfg.rq3.steps / 2, 5);
  probe.restarts = 1;
  ReliabilityAssessor assessor(cfg.rq5, op_data, std::make_shared<Pgd>(probe),
                               rng);

  Outcome o;
  std::vector<std::size_t> allocation;
  for (std::size_t iter = 0; iter < cfg.max_iterations; ++iter) {
    if (budget.exhausted()) break;
    std::vector<std::size_t> seeds;
    timed(t.sample, [&] {
      seeds = cfg.use_feedback_allocation && !allocation.empty()
                  ? sampler.sample_with_allocation(model, op_data,
                                                   assessor.partition(),
                                                   allocation, rng)
                  : sampler.sample(model, op_data,
                                   std::min(cfg.seeds_per_iteration,
                                            op_data.size()),
                                   rng);
    });
    Detection detection;
    timed(t.generate, [&] {
      detection = generator.generate(model, op_data, seeds, budget, rng);
    });
    std::vector<OperationalAE> op_aes;
    for (const OperationalAE& ae : detection.aes) {
      if (ae.is_operational) op_aes.push_back(ae);
    }
    timed(t.retrain, [&] { retrainer.retrain(model, op_data, op_aes, rng); });
    Assessment assessment;
    timed(t.assess, [&] {
      assessment = assessor.assess(model, op_data, budget, rng);
      allocation = assessor.feedback_allocation(cfg.seeds_per_iteration);
    });
    o.seeds += detection.stats.seeds_attacked;
    o.aes += detection.stats.aes_found;
    o.op_aes += detection.stats.operational_aes;
    o.pmi_upper.push_back(assessment.pmi_upper);
    if (assessment.target_met) break;
  }
  o.queries = budget.used();
  return o;
}

/// One fig1 input: digits, the loop's rng seed, and the outcome of its
/// step replay, which every pipeline run on it must reproduce.
struct Variant {
  Digits d;
  std::uint64_t loop_seed = 0;
  Outcome expected;
};

}  // namespace

void run_fig1(const RunOptions& options, Report& report) {
  // A traced run uses the first variant only.
  std::vector<Variant> variants(options.trace ? 1 : kVariants);
  std::vector<double> setups;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const std::uint64_t seed = variant_seed(options.seed, v);
    const Clock::time_point start = Clock::now();
    variants[v].d = make_digits(seed);
    setups.push_back(seconds_between(start, Clock::now()));
    variants[v].loop_seed = sub_seed(seed, 3);
  }
  const PipelineConfig cfg = fig1_config(variants.front().d.ball);
  const OpTestingPipeline pipeline(cfg);

  // One pipeline run on `v` from the initial weights; `result_us`
  // (optional) receives each iteration's latency, observed through the
  // pipeline's own per-iteration callback.
  const auto run_once = [&](const Variant& v, std::vector<double>* result_us,
                            Outcome& out) {
    Classifier model = v.d.model->clone();
    Rng rng(v.loop_seed);
    const Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    const PipelineResult result = pipeline.run(
        model, v.d.operational_sample, rng,
        [&](const IterationRecord&, Classifier&) {
          const Clock::time_point now = Clock::now();
          if (result_us) result_us->push_back(micros_between(last, now));
          last = now;
        });
    const double wall = seconds_between(start, Clock::now());
    out = outcome_of(result);
    return wall;
  };
  const auto replay_once = [&](const Variant& v,
                               const std::shared_ptr<LayerClock>& clock,
                               StepTimes& times, Outcome& out) {
    Classifier model = v.d.model->clone();
    Rng rng(v.loop_seed);
    const Clock::time_point start = Clock::now();
    out = replay(cfg, model, v.d.operational_sample, rng, clock, times);
    return seconds_between(start, Clock::now());
  };

  if (!options.trace) {
    for (Variant& v : variants) {
      StepTimes unused;
      replay_once(v, nullptr, unused, v.expected);
    }
    std::vector<double> iteration_us;
    Outcome got;
    const std::vector<double> walls = repeat_for(options.seconds, 3, [&] {
      double wall = 0.0;
      for (const Variant& v : variants) {
        wall += run_once(v, &iteration_us, got);
        report.check(got == v.expected,
                     "fig1 run differs from its step replay");
      }
      return wall;
    });
    const Outcome& first = variants.front().expected;
    std::cout << "fig1: " << walls.size() << " passes over "
              << variants.size() << " inputs; first input: " << first.queries
              << " queries, " << first.aes << " AEs (" << first.op_aes
              << " operational), final pmi_upper " << first.pmi_upper.back()
              << "\n";
    report_batch_end_to_end(report, setups, walls, iteration_us);
    return;
  }

  // Traced: the pipeline as shipped, the same steps replayed serially,
  // and the replay again with the naturalness metric decorated.
  const Variant& v = variants.front();
  std::vector<double> run_walls, plain_walls, traced_walls;
  std::vector<StepTimes> steps;
  const auto clock = std::make_shared<LayerClock>();
  Outcome run_outcome, plain_outcome, traced_outcome;
  const Clock::time_point traced_start = Clock::now();
  for (std::size_t rep = 0;
       more_trace_reps(rep, traced_start, options.seconds); ++rep) {
    run_walls.push_back(run_once(v, nullptr, run_outcome));
    StepTimes unused;
    plain_walls.push_back(replay_once(v, nullptr, unused, plain_outcome));
    clock->reset();
    steps.emplace_back();
    traced_walls.push_back(
        replay_once(v, clock, steps.back(), traced_outcome));
    report.check(plain_outcome == run_outcome,
                 "fig1 step replay differs from the pipeline run");
    report.check(traced_outcome == run_outcome,
                 "fig1 traced replay differs from the pipeline run");
  }
  const auto step_median = [&](double StepTimes::*field) {
    std::vector<double> values;
    for (const StepTimes& s : steps) values.push_back(s.*field);
    return median(values);
  };
  report.set("op.learn_s", step_median(&StepTimes::learn), "s");
  report.set("core.sample_s", step_median(&StepTimes::sample), "s");
  report.set("core.generate_s", step_median(&StepTimes::generate), "s");
  report.set("core.retrain_s", step_median(&StepTimes::retrain), "s");
  report.set("core.assess_s", step_median(&StepTimes::assess), "s");
  report.set("sched.overhead_s", median(run_walls) - median(plain_walls), "s");
  report.set("trace.overhead_frac",
             median(traced_walls) / median(plain_walls) - 1.0, "fraction");
  report.set("naturalness.calls", static_cast<double>(clock->calls.load()),
             "count");
  report.set("naturalness.busy_s", clock->busy_s(), "s");

  const Outcome& o = run_outcome;
  report_attack_counts(report, o.seeds, o.aes, o.op_aes, o.queries);
  report.set("reliability.pmi_upper", o.pmi_upper.back(), "probability");
  probe_nn(*v.d.model, v.d.test, report);
}

}  // namespace perfbench
