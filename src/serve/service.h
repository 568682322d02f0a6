// Long-lived online detection service with dynamic micro-batching.
//
// Requests (single inputs) are admitted into a bounded MPSC queue —
// submit() blocks when full (backpressure), try_submit() sheds — and a
// single scheduler thread coalesces whatever is pending into one
// Classifier::predict_batch plus one detector pass per tick. A batch is
// dispatched as soon as max_batch requests are pending or the oldest has
// waited max_delay_us, whichever comes first.
//
// Determinism contract (DESIGN.md "Serving layer"): WHICH requests share
// a micro-batch is timing-dependent, but every per-request DetectResult
// is a pure function of (input, scoring snapshot) — predict_batch
// computes each logit row independently and the density sweep folds per
// row in a fixed order — so results are bit-identical for any max_batch,
// arrival order, or thread count (test-pinned).
//
// Drift response: when constructed with an OnlineDriftTrigger, every
// served input feeds the monitor; a persistent alarm schedules a
// background profile re-fit that never stalls serving. The finished
// profile is swapped in atomically (shared_ptr snapshot exchange) with a
// tau recalibrated on the refit sample; in-flight batches keep the
// snapshot they started with.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "detect/detector.h"
#include "nn/model.h"
#include "serve/drift_trigger.h"
#include "serve/types.h"
#include "util/channel.h"

namespace opad::serve {

class DetectionService {
 public:
  /// Takes the serving replica of the model (clone() the original) and a
  /// fitted, thresholded zoo detector — any Detector can serve online.
  /// The service is constructed idle: requests can be queued immediately
  /// but are only served after start() — which is what makes queue-full
  /// shedding deterministically testable.
  DetectionService(Classifier model, std::shared_ptr<const Detector> detector,
                   ServiceConfig config,
                   std::unique_ptr<OnlineDriftTrigger> trigger = nullptr);

  /// Fully general spelling: serve any ForwardScorer (e.g. a timing
  /// decorator around a Classifier).
  DetectionService(std::unique_ptr<ForwardScorer> model,
                   std::shared_ptr<const Detector> detector,
                   ServiceConfig config,
                   std::unique_ptr<OnlineDriftTrigger> trigger = nullptr);

  /// stop()s if still running.
  ~DetectionService();

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Launches the scheduler thread. Idempotent.
  void start();

  /// Closes admission, drains every queued request, joins the scheduler.
  /// Futures of drained requests complete normally. Idempotent.
  void stop();

  /// Blocking admission (backpressure): waits for queue space. The future
  /// resolves when the request's micro-batch has been scored; if scoring
  /// that batch throws, every future of the batch rethrows the exception
  /// and the service keeps serving later batches. Throws
  /// PreconditionError after stop(). A malformed input (not rank 1 with
  /// input_dim() features, or holding a NaN or an infinity) is never
  /// queued: its future already holds a PreconditionError, and it counts
  /// as neither served nor shed.
  std::future<DetectResult> submit(Tensor x);

  /// Shedding admission: returns nullopt when the queue is full or the
  /// service is stopped (counted in stats().shed). Malformed inputs are
  /// rejected exactly as in submit().
  std::optional<std::future<DetectResult>> try_submit(Tensor x);

  ServiceStats stats() const;

  /// Current scoring snapshot (changes only on a drift-triggered re-fit).
  std::shared_ptr<const Detector> detector() const;
  /// The snapshot's OP profile when it serves a DensityDetector; nullptr
  /// for other zoo detectors.
  ProfilePtr profile() const;
  /// The snapshot detector's flag threshold.
  double tau() const;

 private:
  struct Request {
    Tensor x;
    std::promise<DetectResult> promise;
  };

  /// Immutable scoring snapshot; swapped wholesale on re-fit so a batch
  /// never sees detector state from two generations. The detector
  /// carries its own threshold, so the old {profile, tau} pair collapses
  /// to one pointer.
  struct Scoring {
    std::shared_ptr<const Detector> detector;
  };

  /// Admission check: nullopt for a well-formed input, else a future
  /// that already holds the PreconditionError.
  std::optional<std::future<DetectResult>> reject_malformed(
      const Tensor& x) const;

  void scheduler_loop();
  void serve_batch(std::vector<Request>& batch);

  std::unique_ptr<ForwardScorer> model_;
  ServiceConfig config_;
  std::unique_ptr<OnlineDriftTrigger> trigger_;
  std::atomic<std::shared_ptr<const Scoring>> scoring_;
  Channel<Request> queue_;
  std::thread scheduler_;
  bool started_ = false;

  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> max_batch_seen_{0};
  std::atomic<std::uint64_t> refits_{0};
};

}  // namespace opad::serve
