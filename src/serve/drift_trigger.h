// Online drift response: promotes the passive DriftMonitor into a trigger
// that schedules a background operational-profile re-fit.
//
// The scheduler thread feeds every served input to observe(). A
// persistence run of alarmed observations (one alarm can be a blip; a
// run is a regime change) launches the user-supplied refit function on a
// dedicated background thread over the most recent inputs — serving is
// never stalled. The finished profile is collected with poll(), which
// also re-anchors the monitor to the refit sample so the alarm clears
// against the new baseline. A re-fit that throws (or returns no profile)
// is counted and logged by poll(); the serving profile stays, and a later
// alarm run may start a new re-fit.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "op/drift.h"
#include "op/profile.h"

namespace opad::serve {

struct DriftTriggerConfig {
  DriftMonitorConfig monitor;
  /// Consecutive alarmed observations required to schedule a re-fit.
  std::size_t persistence = 25;
  /// Ring buffer of recent inputs the re-fit learns from; must be at
  /// least one monitor window (rebaseline needs a full window of data).
  std::size_t refit_sample = 400;
  /// Base seed of the per-refit Rng streams: refit i runs with stream
  /// derive_stream_seed(refit_seed, i), so a given stream prefix yields
  /// bit-identical refitted profiles on every run.
  std::uint64_t refit_seed = 9001;
};

class OnlineDriftTrigger {
 public:
  /// Learns a new profile from the recent inputs [m, d]. Runs on the
  /// background thread under ScopedInlineExecution, so implementations
  /// may call pool-parallel code (e.g. GaussianMixtureModel::fit) without
  /// contending with the serving path.
  using RefitFn = std::function<ProfilePtr(const Tensor& recent, Rng& rng)>;

  /// A finished re-fit: the new profile plus the sample it was fitted on
  /// (the service recalibrates tau on this sample).
  struct Refit {
    ProfilePtr profile;
    Tensor sample;
  };

  /// `reference` seeds the monitor baseline (same contract as
  /// DriftMonitor). `rng` is consumed for threshold calibration only.
  OnlineDriftTrigger(std::shared_ptr<const CellPartition> partition,
                     const Tensor& reference, DriftTriggerConfig config,
                     RefitFn refit, Rng& rng);

  /// Joins any in-flight re-fit.
  ~OnlineDriftTrigger();

  OnlineDriftTrigger(const OnlineDriftTrigger&) = delete;
  OnlineDriftTrigger& operator=(const OnlineDriftTrigger&) = delete;

  /// Feeds one served input. Scheduler thread only. Returns true when
  /// this observation scheduled a background re-fit.
  bool observe(const Tensor& x);

  /// Collects a finished re-fit, if any: joins the worker, re-anchors the
  /// monitor to the refit sample, and resets the persistence run. A
  /// failed re-fit is joined, counted in refits_failed() and logged, and
  /// yields nothing; the persistence run restarts. Scheduler thread only.
  std::optional<Refit> poll();

  bool refit_in_flight() const { return in_flight_; }
  std::uint64_t refits_started() const { return refits_started_; }
  /// Re-fits whose RefitFn threw or returned no profile. Safe to read
  /// from any thread.
  std::uint64_t refits_failed() const {
    return refits_failed_.load(std::memory_order_relaxed);
  }
  const DriftMonitor& monitor() const { return monitor_; }

 private:
  void start_refit();

  DriftTriggerConfig config_;
  RefitFn refit_;
  std::size_t dim_;
  DriftMonitor monitor_;
  std::deque<Tensor> recent_;   // newest at the back, <= refit_sample
  std::size_t alarm_run_ = 0;   // consecutive alarmed observations
  std::uint64_t refits_started_ = 0;
  std::uint64_t refits_completed_ = 0;
  std::atomic<std::uint64_t> refits_failed_{0};

  // Background worker handoff. `in_flight_` is scheduler-thread state;
  // `ready_`/`result_` cross threads and are guarded by `mutex_`.
  bool in_flight_ = false;
  std::thread worker_;
  std::mutex mutex_;
  bool ready_ = false;
  Refit result_;
  std::optional<std::string> error_;  // set when the re-fit failed
};

}  // namespace opad::serve
