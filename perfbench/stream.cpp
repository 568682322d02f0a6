// stream — the out-of-core campaign leg over a GeneratorSampleStream of
// the ring OP: streaming GMM fit, cell partition + histogram,
// OperationalTest detection and drift monitoring, at bounded memory.
// Chunk regeneration and multi-pass EM dominate, predict_batch runs on
// chunk-sized batches, and no attack runs at all.
#include <iomanip>
#include <iostream>

#include "data/stream.h"
#include "decorators.h"
#include "op/drift.h"
#include "op/gmm.h"
#include "op/histogram.h"
#include "probes.h"
#include "setup.h"
#include "workloads.h"

namespace perfbench {

using namespace opad;

namespace {

constexpr std::size_t kStreamRows = 100'000;

/// What a leg must reproduce: the final EM likelihood (the library's
/// bit-identity witness), the partition, detection stats and alarms.
struct Outcome {
  double em_last = 0.0;  // final EM mean log-likelihood
  std::size_t cells = 0;
  std::size_t cases = 0;
  std::size_t failures = 0;
  std::size_t op_failures = 0;
  std::uint64_t queries = 0;
  std::size_t alarms = 0;

  bool operator==(const Outcome&) const = default;
};

/// Outcome recorded for --seed 1.
constexpr std::uint64_t kPinnedSeed = 1;
const Outcome kPinned{-3.0361244918960293, 64, 100000, 1726, 1358, 100000,
                      7225};

struct Stages {
  double gmm_s = 0.0, cells_s = 0.0, drift_s = 0.0;
  double gmm_rss = 0.0, cells_rss = 0.0, drift_rss = 0.0;
};

struct Leg {
  const Ring& ring;
  const Tensor& drift_reference;
  std::uint64_t seed;

  /// Runs the four stages over `stream`, judging failures with `metric`
  /// and detecting through `method`.
  Outcome run(const SampleStream& stream, const NaturalnessPtr& metric,
              const TestingMethod& method, Stages& s) const {
    Outcome o;
    Clock::time_point start = Clock::now();
    {
      GmmConfig config;
      config.components = 3;
      config.kmeans_iterations = 2;
      config.max_iterations = 4;
      config.tolerance = 0.0;
      Rng rng(sub_seed(seed, 5));
      GmmFitTrace trace;
      GaussianMixtureModel::fit(stream, config, rng, &trace);
      o.em_last = trace.mean_log_likelihood.back();
    }
    s.gmm_s = seconds_between(start, Clock::now());
    s.gmm_rss = peak_rss_mb();

    start = Clock::now();
    Rng cells_rng(sub_seed(seed, 6));
    const auto partition = std::make_shared<const CellPartition>(
        CellPartition::fit(stream, /*bins_per_dim=*/8, /*grid_dims=*/2,
                           cells_rng));
    const HistogramProfile histogram(partition, stream);
    o.cells = partition->cell_count();
    s.cells_s = seconds_between(start, Clock::now());
    s.cells_rss = peak_rss_mb();

    MethodContext context = ring.context();
    context.metric = metric;
    context.seeds.stream = &stream;
    context.max_retained_aes = 256;
    Classifier model = ring.model->clone();
    Rng detect_rng(sub_seed(seed, 7));
    const Detection detection =
        method.detect(model, context, stream.size(), detect_rng);
    o.cases = detection.stats.seeds_attacked;
    o.failures = detection.stats.aes_found;
    o.op_failures = detection.stats.operational_aes;
    o.queries = detection.stats.queries_used;

    start = Clock::now();
    Rng drift_rng(sub_seed(seed, 8));
    DriftMonitor monitor(partition, drift_reference, DriftMonitorConfig{},
                         drift_rng);
    o.alarms = monitor.observe_stream(stream);
    s.drift_s = seconds_between(start, Clock::now());
    s.drift_rss = peak_rss_mb();
    return o;
  }
};

}  // namespace

void run_stream(const RunOptions& options, Report& report) {
  std::vector<double> setups;
  Ring ring;
  std::unique_ptr<GeneratorSampleStream> stream;
  Dataset drift_reference;
  for (std::size_t rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    const Clock::time_point start = Clock::now();
    ring = make_ring(options.seed);
    stream = std::make_unique<GeneratorSampleStream>(
        ring.op_generator, kStreamRows, kChunkRows, sub_seed(options.seed, 9));
    drift_reference = materialize_prefix(*stream, 2000);
    setups.push_back(seconds_between(start, Clock::now()));
  }
  const Leg leg{ring, drift_reference.inputs(), options.seed};
  const MethodPtr method = make_operational_testing_method();

  if (!options.trace) {
    std::vector<Outcome> outcomes;
    const std::vector<double> walls = repeat_for(options.seconds, 3, [&] {
      Stages unused;
      const Clock::time_point start = Clock::now();
      outcomes.push_back(leg.run(*stream, ring.metric, *method, unused));
      return seconds_between(start, Clock::now());
    });
    for (const Outcome& o : outcomes) {
      report.check(o == outcomes.front() &&
                       (options.seed != kPinnedSeed || o == kPinned),
                   "stream leg differs from the pinned outcome");
    }
    const Outcome& o = outcomes.front();
    std::cout << "stream: " << walls.size() << " legs; cells " << o.cells
              << ", cases " << o.cases << ", failures " << o.failures
              << " (" << o.op_failures << " operational), alarms "
              << o.alarms << ", em_last " << std::setprecision(17)
              << o.em_last << std::setprecision(6) << "\n";
    std::vector<double> leg_us;
    for (double w : walls) leg_us.push_back(w * 1e6);
    report_batch_end_to_end(report, setups, walls, leg_us);
    return;
  }

  // Traced: plain legs, then legs through a decorated stream, metric and
  // method.
  std::vector<double> plain_walls, traced_walls, chunk_s, natural_s,
      detect_s;
  std::vector<Stages> stages;
  Outcome plain_outcome, traced_outcome;
  LayerClock chunk_clock, method_clock;
  const auto natural_clock = std::make_shared<LayerClock>();
  const TimedStream timed_stream(*stream, chunk_clock);
  const auto timed_metric =
      std::make_shared<TimedMetric>(ring.metric, natural_clock);
  const TimedMethod timed_method(*method, method_clock);
  const Clock::time_point traced_start = Clock::now();
  for (std::size_t rep = 0;
       more_trace_reps(rep, traced_start, options.seconds); ++rep) {
    Stages unused;
    Clock::time_point start = Clock::now();
    plain_outcome = leg.run(*stream, ring.metric, *method, unused);
    plain_walls.push_back(seconds_between(start, Clock::now()));
    chunk_clock.reset();
    method_clock.reset();
    natural_clock->reset();
    start = Clock::now();
    stages.emplace_back();
    traced_outcome =
        leg.run(timed_stream, timed_metric, timed_method, stages.back());
    traced_walls.push_back(seconds_between(start, Clock::now()));
    chunk_s.push_back(chunk_clock.busy_s());
    natural_s.push_back(natural_clock->busy_s());
    detect_s.push_back(method_clock.busy_s());
    report.check(traced_outcome == plain_outcome,
                 "stream traced leg differs from the plain leg");
  }
  const auto stage_median = [&](double Stages::*field) {
    std::vector<double> values;
    for (const Stages& s : stages) values.push_back(s.*field);
    return median(values);
  };
  report.set("op.learn_s", ring.learn_s, "s");
  report.set("op.gmm_fit_s", stage_median(&Stages::gmm_s), "s");
  report.set("op.gmm_fit_rss_mb", stages.back().gmm_rss, "MB");
  report.set("op.cells_s", stage_median(&Stages::cells_s), "s");
  report.set("op.cells_rss_mb", stages.back().cells_rss, "MB");
  report.set("op.drift_s", stage_median(&Stages::drift_s), "s");
  report.set("op.drift_rss_mb", stages.back().drift_rss, "MB");
  report.set("core.detect_s.OperationalTest", median(detect_s), "s");
  report.set("data.chunk_calls", static_cast<double>(chunk_clock.calls.load()),
             "count");
  report.set("data.chunk_s", median(chunk_s), "s");
  report.set("data.passes",
             static_cast<double>(chunk_clock.calls.load()) /
                 static_cast<double>(stream->chunk_count()),
             "count");
  report.set("naturalness.calls",
             static_cast<double>(natural_clock->calls.load()), "count");
  report.set("naturalness.busy_s", median(natural_s), "s");
  report.set("trace.overhead_frac",
             median(traced_walls) / median(plain_walls) - 1.0, "fraction");

  const Outcome& o = plain_outcome;
  report_attack_counts(report, o.cases, o.failures, o.op_failures, o.queries);
  probe_nn(*ring.model, ring.test, report);
}

}  // namespace perfbench
