#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <utility>
#include <vector>

#include "detect/density_detector.h"
#include "naturalness/density_naturalness.h"
#include "serve/detector.h"
#include "util/error.h"

namespace opad::serve {

namespace {

/// A refit's {profile, tau} pair as a zoo detector.
std::shared_ptr<const Detector> wrap_profile(ProfilePtr profile, double tau) {
  OPAD_EXPECTS(profile != nullptr);
  auto detector = std::make_shared<DensityDetector>(std::move(profile));
  detector->set_threshold(tau);
  return detector;
}

}  // namespace

DetectionService::DetectionService(std::unique_ptr<ForwardScorer> model,
                                   std::shared_ptr<const Detector> detector,
                                   ServiceConfig config,
                                   std::unique_ptr<OnlineDriftTrigger> trigger)
    : model_(std::move(model)),
      config_(config),
      trigger_(std::move(trigger)),
      queue_(config.queue_capacity) {
  OPAD_EXPECTS(model_ != nullptr);
  OPAD_EXPECTS(detector != nullptr);
  OPAD_EXPECTS_MSG(detector->fitted(),
                   "DetectionService requires a fitted detector");
  OPAD_EXPECTS(detector->dim() == model_->input_dim());
  OPAD_EXPECTS(config.max_batch > 0);
  OPAD_EXPECTS(config.tau_quantile > 0.0 && config.tau_quantile < 1.0);
  scoring_.store(std::make_shared<const Scoring>(
      Scoring{std::move(detector)}));
}

DetectionService::DetectionService(Classifier model,
                                   std::shared_ptr<const Detector> detector,
                                   ServiceConfig config,
                                   std::unique_ptr<OnlineDriftTrigger> trigger)
    : DetectionService(
          std::unique_ptr<ForwardScorer>(
              std::make_unique<Classifier>(std::move(model))),
          std::move(detector), config, std::move(trigger)) {}

DetectionService::~DetectionService() { stop(); }

void DetectionService::start() {
  if (started_) return;
  started_ = true;
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

void DetectionService::stop() {
  queue_.close();
  if (scheduler_.joinable()) scheduler_.join();
}

std::optional<std::future<DetectResult>> DetectionService::reject_malformed(
    const Tensor& x) const {
  const bool shaped = x.rank() == 1 && x.dim(0) == model_->input_dim();
  const auto data = x.data();
  const auto bad = std::find_if_not(data.begin(), data.end(),
                                    [](float v) { return std::isfinite(v); });
  if (shaped && bad == data.end()) return std::nullopt;
  std::ostringstream os;
  if (!shaped) {
    os << "DetectionService expects a flat input of " << model_->input_dim()
       << " features, got " << shape_to_string(x.shape());
  } else {
    os << "DetectionService expects finite inputs, got " << *bad
       << " at feature " << (bad - data.begin());
  }
  std::promise<DetectResult> rejected;
  rejected.set_exception(std::make_exception_ptr(PreconditionError(os.str())));
  return rejected.get_future();
}

std::future<DetectResult> DetectionService::submit(Tensor x) {
  if (auto rejected = reject_malformed(x)) return std::move(*rejected);
  Request request{std::move(x), {}};
  std::future<DetectResult> future = request.promise.get_future();
  OPAD_EXPECTS_MSG(queue_.push(std::move(request)),
                   "submit() on a stopped DetectionService");
  return future;
}

std::optional<std::future<DetectResult>> DetectionService::try_submit(
    Tensor x) {
  if (auto rejected = reject_malformed(x)) return rejected;
  Request request{std::move(x), {}};
  std::future<DetectResult> future = request.promise.get_future();
  if (!queue_.try_push(std::move(request))) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  return future;
}

void DetectionService::scheduler_loop() {
  while (true) {
    std::vector<Request> batch = queue_.pop_batch(
        config_.max_batch, std::chrono::microseconds(config_.max_delay_us));
    if (batch.empty()) break;  // closed and drained
    // A scoring failure fails only this micro-batch: no promise is
    // fulfilled before scoring returns, so every one of them takes the
    // exception, the batch is left out of the counters and the drift
    // monitor, and the scheduler keeps serving.
    try {
      serve_batch(batch);
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      for (Request& request : batch) request.promise.set_exception(error);
      continue;
    }

    // Drift bookkeeping happens between batches on the scheduler: feed
    // every served input in completion order, then collect any finished
    // background re-fit and swap the scoring snapshot atomically.
    if (!trigger_) continue;
    for (const Request& request : batch) trigger_->observe(request.x);
    if (auto refit = trigger_->poll()) {
      // Re-fits always produce a density snapshot: the trigger's RefitFn
      // returns a profile, and tau is recalibrated on the refit sample —
      // numerically the exact pre-zoo swap.
      const DensityNaturalness metric(refit->profile);
      const double tau = naturalness_threshold(metric, refit->sample,
                                               config_.tau_quantile);
      scoring_.store(std::make_shared<const Scoring>(
          Scoring{wrap_profile(std::move(refit->profile), tau)}));
      refits_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void DetectionService::serve_batch(std::vector<Request>& batch) {
  const std::size_t n = batch.size();
  Tensor inputs({n, model_->input_dim()});
  for (std::size_t i = 0; i < n; ++i) {
    inputs.set_row(i, batch[i].x.data());
  }
  const std::shared_ptr<const Scoring> scoring = scoring_.load();
  std::vector<DetectResult> results(n);
  score_batch(*model_, *scoring->detector, inputs, results);
  for (std::size_t i = 0; i < n; ++i) {
    batch[i].promise.set_value(results[i]);
  }
  served_.fetch_add(n, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_batch_seen_.load(std::memory_order_relaxed);
  while (n > seen &&
         !max_batch_seen_.compare_exchange_weak(seen, n,
                                                std::memory_order_relaxed)) {
  }
}

ServiceStats DetectionService::stats() const {
  ServiceStats stats;
  stats.served = served_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.max_batch_seen = max_batch_seen_.load(std::memory_order_relaxed);
  stats.refits = refits_.load(std::memory_order_relaxed);
  return stats;
}

std::shared_ptr<const Detector> DetectionService::detector() const {
  return scoring_.load()->detector;
}

ProfilePtr DetectionService::profile() const {
  const std::shared_ptr<const Detector> detector = scoring_.load()->detector;
  if (const auto* density =
          dynamic_cast<const DensityDetector*>(detector.get())) {
    return density->profile();
  }
  return nullptr;
}

double DetectionService::tau() const {
  return scoring_.load()->detector->threshold();
}

}  // namespace opad::serve
