// campaign — run_detect_retrain_campaign on digits for PGD-Uniform,
// MIFGSM-Uniform and RandomFuzz, each from the same initial weights at a
// fixed query budget. The only traffic through the attack lane engines
// (Pgd / MomentumPgd::run_batch over 32-row lanes) and the campaign stage
// graph, which fig1's per-seed fuzzer never touches.
//
// An untraced run times passes over kVariants inputs (operational sample,
// OP and round streams), each campaign checked against its serial step
// replay.
#include <iostream>
#include <iterator>
#include <map>
#include <string>

#include "core/campaign.h"
#include "decorators.h"
#include "probes.h"
#include "setup.h"
#include "workloads.h"

namespace perfbench {

using namespace opad;

namespace {

const char* const kMethods[] = {"PGD-Uniform", "MIFGSM-Uniform",
                                "RandomFuzz"};

CampaignConfig campaign_config(std::uint64_t seed) {
  CampaignConfig c;
  c.rounds = 4;
  c.query_budget = 24'000;
  c.base_seed = sub_seed(seed, 4);
  return c;
}

/// Per-method campaign totals, the output the run is checked on.
struct Totals {
  std::size_t seeds = 0;
  std::size_t aes = 0;
  std::size_t clean_failures = 0;
  std::size_t op_aes = 0;
  std::uint64_t queries = 0;

  bool operator==(const Totals&) const = default;
};

Totals totals_of(const DetectionStats& s) {
  return {s.seeds_attacked, s.aes_found, s.clean_failures, s.operational_aes,
          s.queries_used};
}

/// Totals of the first variant for --seed 1, in kMethods order.
constexpr std::uint64_t kPinnedSeed = 1;
const std::vector<Totals> kPinned = {
    {801, 506, 9, 256, 23858},
    {623, 365, 7, 182, 23953},
    {590, 7, 3, 3, 23949},
};

/// One campaign input: digits with their learned OP, the round streams,
/// and the per-method totals of the serial step replay, which every
/// measured campaign on it must reproduce.
struct Variant {
  Digits d;
  CampaignConfig config;
  std::vector<Totals> expected;
};

/// The campaign's rounds through the public step calls, serially: each
/// round's detect then retrain, on the campaign's own per-round streams.
/// Adds the time spent retraining to `retrain_s`.
Totals replay(Classifier& model, const TestingMethod& method,
              const MethodContext& context, const Dataset& anchor,
              const CampaignConfig& config, double& retrain_s) {
  const AdversarialRetrainer retrainer(config.retrain);
  const std::uint64_t per_round = config.query_budget / config.rounds;
  DetectionStats totals;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    Rng detect_rng(config.base_seed * 1000003u + round);
    const Detection detection =
        method.detect(model, context, per_round, detect_rng);
    Rng retrain_rng(config.base_seed * 7919u + round);
    const Clock::time_point start = Clock::now();
    retrainer.retrain(model, anchor, detection.aes, retrain_rng);
    retrain_s += seconds_between(start, Clock::now());
    totals += detection.stats;
  }
  return totals_of(totals);
}

}  // namespace

void run_campaign(const RunOptions& options, Report& report) {
  // A traced run uses the first variant only.
  std::vector<Variant> variants(options.trace ? 1 : kVariants);
  std::vector<double> setups;
  double learn_s = 0.0;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const std::uint64_t seed = variant_seed(options.seed, v);
    const Clock::time_point start = Clock::now();
    variants[v].d = make_digits(seed);
    learn_s = learn_digits_op(variants[v].d, seed);
    setups.push_back(seconds_between(start, Clock::now()));
    variants[v].config = campaign_config(seed);
  }
  const MethodSuiteConfig suite;
  std::vector<MethodPtr> methods;
  for (const char* name : kMethods) methods.push_back(make_method(name, suite));

  // One campaign per method on `v`, each from the initial weights.
  // `method_us` (optional) receives each campaign's latency.
  const auto run_all = [&](const Variant& v, std::vector<double>* method_us,
                           std::vector<Totals>& out) {
    out.clear();
    const MethodContext context = v.d.context();
    double wall = 0.0;
    for (const MethodPtr& method : methods) {
      Classifier model = v.d.model->clone();
      const Clock::time_point start = Clock::now();
      const CampaignResult result = run_detect_retrain_campaign(
          model, *method, context, v.d.operational_sample, v.config);
      const double seconds = seconds_between(start, Clock::now());
      wall += seconds;
      if (method_us) method_us->push_back(seconds * 1e6);
      out.push_back(totals_of(result.totals));
    }
    return wall;
  };

  if (!options.trace) {
    for (Variant& v : variants) {
      const MethodContext context = v.d.context();
      for (const MethodPtr& method : methods) {
        Classifier model = v.d.model->clone();
        double unused = 0.0;
        v.expected.push_back(replay(model, *method, context,
                                    v.d.operational_sample, v.config,
                                    unused));
      }
    }
    report.check(options.seed != kPinnedSeed ||
                     variants.front().expected == kPinned,
                 "campaign totals differ from the pinned totals");
    std::vector<double> method_us;
    std::vector<Totals> got;
    const std::vector<double> walls = repeat_for(options.seconds, 3, [&] {
      double wall = 0.0;
      for (const Variant& v : variants) {
        wall += run_all(v, &method_us, got);
        report.check(got == v.expected,
                     "campaign totals differ from their step replay");
      }
      return wall;
    });
    for (std::size_t m = 0; m < std::size(kMethods); ++m) {
      const Totals& t = variants.front().expected[m];
      std::cout << "campaign " << kMethods[m] << ": {" << t.seeds << ", "
                << t.aes << ", " << t.clean_failures << ", " << t.op_aes
                << ", " << t.queries << "}\n";
    }
    report_batch_end_to_end(report, setups, walls, method_us);
    return;
  }

  // Traced: the campaigns as shipped, the same rounds replayed serially,
  // and the replay again through decorated methods and metric.
  const Variant& v = variants.front();
  const MethodContext context = v.d.context();
  const Dataset& anchor = v.d.operational_sample;
  std::vector<double> run_walls, plain_walls, traced_walls, retrain_walls;
  std::map<std::string, std::vector<double>> detect_walls;
  const auto clock = std::make_shared<LayerClock>();
  MethodContext traced_context = context;
  traced_context.metric = std::make_shared<TimedMetric>(v.d.metric, clock);
  std::vector<Totals> run_totals;
  const Clock::time_point traced_start = Clock::now();
  for (std::size_t rep = 0;
       more_trace_reps(rep, traced_start, options.seconds); ++rep) {
    run_walls.push_back(run_all(v, nullptr, run_totals));
    double plain = 0.0, traced = 0.0, retrain = 0.0;
    clock->reset();
    for (std::size_t m = 0; m < methods.size(); ++m) {
      double unused = 0.0;
      Classifier plain_model = v.d.model->clone();
      Clock::time_point start = Clock::now();
      const Totals plain_totals = replay(plain_model, *methods[m], context,
                                         anchor, v.config, unused);
      plain += seconds_between(start, Clock::now());
      LayerClock method_clock;
      const TimedMethod timed(*methods[m], method_clock);
      Classifier traced_model = v.d.model->clone();
      start = Clock::now();
      const Totals traced_totals = replay(traced_model, timed, traced_context,
                                          anchor, v.config, retrain);
      traced += seconds_between(start, Clock::now());
      detect_walls[kMethods[m]].push_back(method_clock.busy_s());
      report.check(plain_totals == run_totals[m] &&
                       traced_totals == run_totals[m],
                   std::string("campaign replay differs for ") + kMethods[m]);
    }
    plain_walls.push_back(plain);
    traced_walls.push_back(traced);
    retrain_walls.push_back(retrain);
  }
  for (const auto& [name, walls] : detect_walls) {
    report.set("core.detect_s." + name, median(walls), "s");
  }
  report.set("core.retrain_s", median(retrain_walls), "s");
  report.set("sched.overhead_s", median(run_walls) - median(plain_walls), "s");
  report.set("trace.overhead_frac",
             median(traced_walls) / median(plain_walls) - 1.0, "fraction");
  report.set("op.learn_s", learn_s, "s");
  report.set("naturalness.calls", static_cast<double>(clock->calls.load()),
             "count");
  report.set("naturalness.busy_s", clock->busy_s(), "s");

  Totals all;
  for (const Totals& t : run_totals) {
    all.seeds += t.seeds;
    all.aes += t.aes;
    all.op_aes += t.op_aes;
    all.queries += t.queries;
  }
  report_attack_counts(report, all.seeds, all.aes, all.op_aes, all.queries);
  probe_nn(*v.d.model, v.d.test, report);
}

}  // namespace perfbench
