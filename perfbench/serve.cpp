// serve — DetectionService with the default ServiceConfig, the digits
// model and a DensityDetector at tau, fed seeded open-loop (Poisson)
// arrivals from one sending thread in two phases:
//   trickle  micro-batches hold about one request, so latency is the
//            coalescing window plus thread wake-ups;
//   peak     a fixed rate at which batches hold several requests and
//            nothing is shed.
// Latency runs from each request's scheduled send time to the moment a
// waiter thread, blocked on the futures in admission order, observes the
// response, so a stalled sender or service is charged to every request
// due behind it. Digits rather than the ring: on the 2-D ring a batch
// scores in microseconds and only thread wake-ups would be measured.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <iostream>
#include <optional>
#include <thread>

#include "data/digits.h"
#include "decorators.h"
#include "detect/density_detector.h"
#include "probes.h"
#include "serve/detector.h"
#include "serve/service.h"
#include "setup.h"
#include "workloads.h"

namespace perfbench {

using namespace opad;

namespace {

// Phase rates and the latency limit a response must meet to count in
// ok_frac, fixed from the service's capacity on a 4-core host: nothing
// was shed up to 80k requests/s (mean batch 29, p99 0.9 ms). At 500/s
// batches hold about one request, at 10k/s about three.
constexpr double kTrickleRps = 500.0;
constexpr double kPeakRps = 10'000.0;
constexpr double kTrickleShare = 0.4;  // of the measured seconds
constexpr double kLatencyLimitUs = 20'000.0;
constexpr std::size_t kInputs = 2048;

enum Phase { kTrickle = 0, kPeak = 1 };
const char* const kPhaseNames[] = {"trickle", "peak"};

struct Arrival {
  double due_us = 0.0;  // offset from the schedule start
  std::size_t input = 0;
  Phase phase = kTrickle;
};

std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds) {
  Rng rng(sub_seed(seed, 10));
  std::vector<Arrival> arrivals;
  const double phase_end[] = {kTrickleShare * seconds * 1e6, seconds * 1e6};
  const double rate[] = {kTrickleRps, kPeakRps};
  double t = 0.0;
  for (const Phase phase : {kTrickle, kPeak}) {
    while (true) {
      t += -std::log1p(-rng.uniform()) * 1e6 / rate[phase];
      if (t >= phase_end[phase]) break;
      arrivals.push_back({t, rng.uniform_index(kInputs), phase});
    }
    t = phase_end[phase];
  }
  return arrivals;
}

/// What the sender and the waiter saw, per scheduled request.
struct Played {
  Clock::time_point start;  // schedule origin
  std::vector<Clock::time_point> sent;
  std::vector<Clock::time_point> done;
  std::vector<std::optional<serve::DetectResult>> results;  // nullopt: shed
  std::vector<char> failed;

  Clock::time_point due(const Arrival& a) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::micro>(a.due_us));
  }
};

/// Wake-ups within a microsecond instead of the default 50 us timer
/// slack, for the calling benchmark thread only.
void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

Played play(serve::DetectionService& service,
            const std::vector<Arrival>& arrivals,
            const std::vector<Tensor>& inputs) {
  const std::size_t n = arrivals.size();
  Played p;
  p.sent.resize(n);
  p.done.resize(n);
  p.results.resize(n);
  p.failed.assign(n, 0);
  std::vector<std::optional<std::future<serve::DetectResult>>> futures(n);
  std::atomic<std::size_t> published{0};

  std::thread waiter([&] {
    tighten_timer_slack();
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t seen = published.load(std::memory_order_acquire);
      while (seen <= i) {
        published.wait(seen, std::memory_order_acquire);
        seen = published.load(std::memory_order_acquire);
      }
      if (!futures[i]) continue;
      try {
        p.results[i] = futures[i]->get();
      } catch (...) {
        p.failed[i] = 1;
      }
      p.done[i] = Clock::now();
    }
  });

  tighten_timer_slack();
  p.start = Clock::now() + std::chrono::milliseconds(2);
  std::exception_ptr error;
  try {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(p.due(arrivals[i]));
      p.sent[i] = Clock::now();
      futures[i] = service.try_submit(inputs[arrivals[i].input]);
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
  } catch (...) {
    error = std::current_exception();
    published.store(n, std::memory_order_release);
    published.notify_one();
  }
  waiter.join();
  if (error) std::rethrow_exception(error);
  return p;
}

/// Checks every response against serve::score_batch of its input alone
/// and returns per-request latencies (us, from the scheduled send). A
/// failed or wrong response fails the run; a shed request or a response
/// later than kLatencyLimitUs is a miss that only lowers ok_frac.
std::vector<double> check_responses(const Played& p,
                                    const std::vector<Arrival>& arrivals,
                                    const std::vector<serve::DetectResult>&
                                        expected,
                                    Report& report) {
  std::vector<double> latency_us(arrivals.size(), 0.0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto& got = p.results[i];
    const serve::DetectResult& want = expected[arrivals[i].input];
    const bool shed = !got && !p.failed[i];
    const bool right = got && got->label == want.label &&
                       std::memcmp(&got->naturalness, &want.naturalness,
                                   sizeof(double)) == 0 &&
                       got->natural == want.natural;
    report.check(shed || right, "serve request " + std::to_string(i) +
                                    (got ? " answered wrongly" : " failed"));
    if (got) latency_us[i] = micros_between(p.due(arrivals[i]), p.done[i]);
    if (shed || (right && latency_us[i] > kLatencyLimitUs)) report.miss();
  }
  return latency_us;
}

struct Service {
  std::shared_ptr<const Detector> detector;
  std::unique_ptr<serve::DetectionService> service;
};

Service start_service(const Digits& d) {
  auto detector = std::make_shared<DensityDetector>(d.op.profile);
  detector->set_threshold(d.tau);
  Service s{detector, std::make_unique<serve::DetectionService>(
                          d.model->clone(), detector, serve::ServiceConfig{})};
  s.service->start();
  return s;
}

}  // namespace

void run_serve(const RunOptions& options, Report& report) {
  std::vector<double> setups;
  Digits d;
  Service served;
  double learn_s = 0.0;
  for (std::size_t rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    served = Service{};  // stop the previous repetition's service first
    const Clock::time_point start = Clock::now();
    d = make_digits(options.seed);
    learn_s = learn_digits_op(d, options.seed);
    served = start_service(d);
    setups.push_back(seconds_between(start, Clock::now()));
  }

  // Request inputs and their expected responses, each scored alone.
  Rng input_rng(sub_seed(options.seed, 11));
  const auto op_generator =
      SyntheticDigitsGenerator::operational_distribution();
  std::vector<Tensor> inputs;
  std::vector<serve::DetectResult> expected(kInputs);
  Classifier reference = d.model->clone();
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(op_generator.sample(input_rng).x);
    Tensor one({1, inputs.back().size()});
    one.set_row(0, inputs.back().data());
    serve::score_batch(reference, *served.detector, one,
                       std::span<serve::DetectResult>(&expected[i], 1));
  }

  // A traced run splits its seconds between an untraced and a traced
  // service over the same schedule.
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<Arrival> arrivals = make_schedule(options.seed, seconds);
  // The values of the requests of one phase that were answered.
  const auto phase_values = [&](const Played& played,
                                const std::vector<double>& values,
                                Phase phase) {
    std::vector<double> out;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i].phase == phase && played.results[i]) {
        out.push_back(values[i]);
      }
    }
    return out;
  };

  const Played plain = play(*served.service, arrivals, inputs);
  served.service->stop();
  const std::vector<double> plain_latency =
      check_responses(plain, arrivals, expected, report);
  if (!options.trace) {
    Clock::time_point last = plain.start;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (plain.results[i]) last = std::max(last, plain.done[i]);
    }
    const Timing trickle =
        summarize(phase_values(plain, plain_latency, kTrickle));
    const Timing peak = summarize(phase_values(plain, plain_latency, kPeak));
    std::cout << "serve: " << arrivals.size() << " requests; trickle p50 "
              << trickle.p50 << " us (n=" << trickle.samples << "), peak p"
              << peak.tail_q * 100 << " " << peak.tail
              << " us (n=" << peak.samples << "), stats: served "
              << served.service->stats().served << ", batches "
              << served.service->stats().batches << ", shed "
              << served.service->stats().shed << "\n";
    // wall_s: first due send to last response, i.e. whether the service
    // kept up with the schedule. p50_us is the latency floor at trickle
    // load (coalescing window plus wake-ups); tail_us the tail at peak.
    report.set("setup_s", median(setups), "s");
    report.set("wall_s",
               seconds_between(plain.due(arrivals.front()), last), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("ok_frac", report.ok_frac(), "fraction");
    report.set("p50_us", trickle.p50, "us");
    report.set("tail_us", peak.tail, "us");
    return;
  }

  // Traced: the same schedule against a service whose model and detector
  // are wrapped in timing decorators. Micro-batches leave the queue in
  // admission order, so batch k serves the next rows_k admitted requests.
  const auto forward = std::make_shared<std::vector<BatchSpan>>();
  const auto scoring = std::make_shared<std::vector<BatchSpan>>();
  serve::DetectionService traced_service(
      std::make_unique<TimedScorer>(d.model->clone_scorer(), forward),
      std::make_shared<TimedDetector>(served.detector, scoring),
      serve::ServiceConfig{});
  traced_service.start();
  const Played traced = play(traced_service, arrivals, inputs);
  traced_service.stop();
  const std::vector<double> traced_latency =
      check_responses(traced, arrivals, expected, report);
  report.check(forward->size() == scoring->size(),
               "serve batches differ between forward and detector spans");

  std::vector<double> queue_wait(arrivals.size(), 0.0);
  std::vector<double> notify(arrivals.size(), 0.0);
  std::size_t batches[2] = {0, 0};
  std::size_t batched_requests[2] = {0, 0};
  std::size_t next = 0;  // next admitted request
  for (std::size_t k = 0; k < forward->size() && k < scoring->size(); ++k) {
    const BatchSpan& f = (*forward)[k];
    std::size_t rows = 0;
    for (; next < arrivals.size() && rows < f.rows; ++next) {
      if (!traced.results[next] && !traced.failed[next]) continue;  // shed
      if (rows == 0) ++batches[arrivals[next].phase];
      ++batched_requests[arrivals[next].phase];
      queue_wait[next] = micros_between(traced.due(arrivals[next]), f.start);
      notify[next] = micros_between((*scoring)[k].end, traced.done[next]);
      ++rows;
    }
  }
  for (const Phase phase : {kTrickle, kPeak}) {
    const std::string prefix = kPhaseNames[phase];
    std::size_t shed = 0;
    std::vector<double> late;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i].phase != phase) continue;
      if (!traced.results[i]) ++shed;
      late.push_back(micros_between(traced.due(arrivals[i]), traced.sent[i]));
    }
    const std::vector<double> latency =
        phase_values(traced, traced_latency, phase);
    const std::vector<double> waits = phase_values(traced, queue_wait, phase);
    report.set(prefix + ".p50_us", median(latency), "us");
    report.set(prefix + ".p99_us", quantile(latency, 0.99), "us");
    report.set(prefix + ".serve.queue_wait_p50_us", median(waits), "us");
    report.set(prefix + ".serve.queue_wait_p99_us", quantile(waits, 0.99),
               "us");
    report.set(prefix + ".serve.notify_p50_us",
               median(phase_values(traced, notify, phase)), "us");
    report.set(prefix + ".serve.batch_mean",
               batches[phase] ? static_cast<double>(batched_requests[phase]) /
                                    static_cast<double>(batches[phase])
                              : 0.0,
               "count");
    report.set(prefix + ".serve.batches", static_cast<double>(batches[phase]),
               "count");
    report.set(prefix + ".serve.shed", static_cast<double>(shed), "count");
    report.set(prefix + ".serve.gen_late_p99_us", quantile(late, 0.99), "us");
  }
  std::vector<double> forward_us, score_us;
  for (const BatchSpan& s : *forward) {
    forward_us.push_back(micros_between(s.start, s.end));
  }
  for (const BatchSpan& s : *scoring) {
    score_us.push_back(micros_between(s.start, s.end));
  }
  report.set("nn.forward_p50_us", median(forward_us), "us");
  report.set("nn.forward_p99_us", quantile(forward_us, 0.99), "us");
  report.set("detect.score_p50_us", median(score_us), "us");
  report.set("detect.score_p99_us", quantile(score_us, 0.99), "us");
  report.set("nn.queries", static_cast<double>(traced_service.stats().served),
             "count");
  report.set("trace.overhead_frac",
             median(phase_values(traced, traced_latency, kPeak)) /
                     median(phase_values(plain, plain_latency, kPeak)) -
                 1.0,
             "fraction");
  report.set("op.learn_s", learn_s, "s");
  probe_nn(*d.model, d.test, report);
}

}  // namespace perfbench
