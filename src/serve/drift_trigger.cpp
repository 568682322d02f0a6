#include "serve/drift_trigger.h"

#include <exception>
#include <utility>

#include "util/error.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace opad::serve {

OnlineDriftTrigger::OnlineDriftTrigger(
    std::shared_ptr<const CellPartition> partition, const Tensor& reference,
    DriftTriggerConfig config, RefitFn refit, Rng& rng)
    : config_(config),
      refit_(std::move(refit)),
      dim_(reference.rank() == 2 ? reference.dim(1) : 0),
      monitor_(std::move(partition), reference, config.monitor, rng) {
  OPAD_EXPECTS(refit_ != nullptr);
  OPAD_EXPECTS(config.persistence > 0);
  OPAD_EXPECTS_MSG(config.refit_sample >= config.monitor.window,
                   "refit_sample must cover at least one monitor window");
}

OnlineDriftTrigger::~OnlineDriftTrigger() {
  if (worker_.joinable()) worker_.join();
}

bool OnlineDriftTrigger::observe(const Tensor& x) {
  recent_.push_back(x);
  if (recent_.size() > config_.refit_sample) recent_.pop_front();
  alarm_run_ = monitor_.observe(x) ? alarm_run_ + 1 : 0;
  if (alarm_run_ >= config_.persistence && !in_flight_ &&
      recent_.size() >= config_.refit_sample) {
    start_refit();
    return true;
  }
  return false;
}

void OnlineDriftTrigger::start_refit() {
  // Snapshot the ring buffer; the worker owns the copy.
  Tensor sample({recent_.size(), dim_});
  for (std::size_t i = 0; i < recent_.size(); ++i) {
    sample.set_row(i, recent_[i].data());
  }
  in_flight_ = true;
  const std::uint64_t index = refits_started_++;
  worker_ = std::thread([this, sample = std::move(sample), index]() mutable {
    // Inline execution: the re-fit must not contend for the global pool
    // with the serving hot path. Bit-identical anyway — the chunk
    // decomposition every reduction folds over is thread-count
    // independent.
    ScopedInlineExecution inline_guard;
    Rng rng(derive_stream_seed(config_.refit_seed, index));
    // An exception must not leave this thread: std::thread would call
    // std::terminate. The failure travels to poll() instead.
    ProfilePtr profile;
    std::optional<std::string> error;
    try {
      profile = refit_(sample, rng);
      if (!profile) error = "the refit function returned no profile";
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    std::lock_guard<std::mutex> lock(mutex_);
    result_ = Refit{std::move(profile), std::move(sample)};
    error_ = std::move(error);
    ready_ = true;
  });
}

std::optional<OnlineDriftTrigger::Refit> OnlineDriftTrigger::poll() {
  if (!in_flight_) return std::nullopt;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ready_) return std::nullopt;
  }
  worker_.join();
  Refit refit = std::move(result_);
  ready_ = false;
  in_flight_ = false;
  if (error_) {
    refits_failed_.fetch_add(1, std::memory_order_relaxed);
    OPAD_WARN << "drift re-fit " << refits_started_ - 1
              << " failed; keeping the serving profile: " << *error_;
    error_.reset();
    alarm_run_ = 0;
    return std::nullopt;
  }
  // Re-anchor the monitor to the data the new profile was fitted on: the
  // drifted stream is the new normal, so the alarm clears and the next
  // window is judged against the new baseline. The complemented base seed
  // keeps the recalibration stream disjoint from every refit stream.
  Rng rng(derive_stream_seed(~config_.refit_seed, refits_completed_++));
  monitor_.rebaseline(refit.sample, rng);
  alarm_run_ = 0;
  return refit;
}

}  // namespace opad::serve
