// Timing decorators over the interfaces the library accepts from its
// callers. Each forwards every call unchanged and only records calls and
// busy time, so a traced run computes bit-identical results.
#pragma once

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/methods.h"
#include "data/stream.h"
#include "detect/detector.h"
#include "harness.h"
#include "naturalness/metric.h"
#include "nn/model.h"

namespace perfbench {

/// Naturalness layer: score() and score_gradient() calls and busy time,
/// summed over every thread that scores through this metric or its
/// replicas.
class TimedMetric final : public opad::NaturalnessMetric {
 public:
  TimedMetric(opad::NaturalnessPtr inner, std::shared_ptr<LayerClock> clock)
      : inner_(std::move(inner)), clock_(std::move(clock)) {}

  std::size_t dim() const override { return inner_->dim(); }
  double score(const opad::Tensor& x) const override {
    const Clock::time_point start = Clock::now();
    const double value = inner_->score(x);
    clock_->add(start);
    return value;
  }
  bool has_gradient() const override { return inner_->has_gradient(); }
  opad::Tensor score_gradient(const opad::Tensor& x) const override {
    const Clock::time_point start = Clock::now();
    opad::Tensor gradient = inner_->score_gradient(x);
    clock_->add(start);
    return gradient;
  }
  std::shared_ptr<const opad::NaturalnessMetric> thread_replica()
      const override {
    opad::NaturalnessPtr replica = inner_->thread_replica();
    if (!replica) return nullptr;
    return std::make_shared<TimedMetric>(std::move(replica), clock_);
  }

 private:
  opad::NaturalnessPtr inner_;
  std::shared_ptr<LayerClock> clock_;
};

/// Testing-method layer: detect() calls and busy time.
class TimedMethod final : public opad::TestingMethod {
 public:
  TimedMethod(const opad::TestingMethod& inner, LayerClock& clock)
      : inner_(&inner), clock_(&clock) {}

  std::string name() const override { return inner_->name(); }
  opad::Detection detect(opad::Classifier& model,
                         const opad::MethodContext& context,
                         std::uint64_t query_budget,
                         opad::Rng& rng) const override {
    const Clock::time_point start = Clock::now();
    opad::Detection detection =
        inner_->detect(model, context, query_budget, rng);
    clock_->add(start);
    return detection;
  }

 private:
  const opad::TestingMethod* inner_;
  LayerClock* clock_;
};

/// Data layer: chunk() materialisations and the time they take.
class TimedStream final : public opad::SampleStream {
 public:
  TimedStream(const opad::SampleStream& inner, LayerClock& clock)
      : inner_(&inner), clock_(&clock) {}

  std::size_t size() const override { return inner_->size(); }
  std::size_t dim() const override { return inner_->dim(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  std::size_t chunk_size() const override { return inner_->chunk_size(); }
  opad::Dataset chunk(std::size_t i) const override {
    const Clock::time_point start = Clock::now();
    opad::Dataset rows = inner_->chunk(i);
    clock_->add(start);
    return rows;
  }

 private:
  const opad::SampleStream* inner_;
  LayerClock* clock_;
};

/// One decorated call: when it ran and how many rows it carried.
struct BatchSpan {
  Clock::time_point start;
  Clock::time_point end;
  std::size_t rows = 0;
};

/// Forward layer of a served model: every logits() call (one per
/// micro-batch) in call order. The service calls it from its scheduler
/// thread only; read the spans after the service has stopped.
class TimedScorer final : public opad::ForwardScorer {
 public:
  TimedScorer(std::unique_ptr<opad::ForwardScorer> inner,
              std::shared_ptr<std::vector<BatchSpan>> spans)
      : inner_(std::move(inner)), spans_(std::move(spans)) {}

  std::size_t input_dim() const override { return inner_->input_dim(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  opad::Tensor logits(const opad::Tensor& inputs,
                      opad::ActivationTape* tape = nullptr) override {
    const Clock::time_point start = Clock::now();
    opad::Tensor out = inner_->logits(inputs, tape);
    spans_->push_back({start, Clock::now(), inputs.dim(0)});
    return out;
  }
  std::uint64_t query_count() const override { return inner_->query_count(); }
  void reset_query_count() override { inner_->reset_query_count(); }
  void add_queries(std::uint64_t n) override { inner_->add_queries(n); }
  /// Replicas are untimed: the spans belong to the served instance.
  std::unique_ptr<opad::ForwardScorer> clone_scorer() const override {
    return inner_->clone_scorer();
  }
  const char* precision() const override { return inner_->precision(); }

 private:
  std::unique_ptr<opad::ForwardScorer> inner_;
  std::shared_ptr<std::vector<BatchSpan>> spans_;
};

/// Detector layer of a served model: every score_batch() call in call
/// order, under the same single-thread rule as TimedScorer.
class TimedDetector final : public opad::Detector {
 public:
  TimedDetector(opad::DetectorPtr inner,
                std::shared_ptr<std::vector<BatchSpan>> spans)
      : inner_(std::move(inner)), spans_(std::move(spans)) {
    set_threshold(inner_->threshold());
  }

  std::string name() const override { return inner_->name(); }
  std::size_t dim() const override { return inner_->dim(); }
  void fit(const opad::Dataset&, opad::Rng&) override {
    throw std::logic_error("TimedDetector wraps an already fitted detector");
  }
  bool fitted() const override { return inner_->fitted(); }
  void score_batch(const opad::Tensor& inputs,
                   std::span<double> out) const override {
    const Clock::time_point start = Clock::now();
    inner_->score_batch(inputs, out);
    spans_->push_back({start, Clock::now(), inputs.dim(0)});
  }
  bool has_gradient() const override { return inner_->has_gradient(); }
  opad::Tensor score_gradient(const opad::Tensor& x) const override {
    return inner_->score_gradient(x);
  }

 private:
  opad::DetectorPtr inner_;
  std::shared_ptr<std::vector<BatchSpan>> spans_;
};

}  // namespace perfbench
