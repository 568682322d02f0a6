#include "detect/lid_detector.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace opad {

namespace {

/// Rows per worker chunk when scoring (each row walks every bank entry).
constexpr std::size_t kRowGrain = 1;
/// Floor for squared neighbour distances (exact duplicates) and for the
/// log-ratio sum (all-equal distances): keeps the MLE finite without
/// perturbing any regular case.
constexpr double kDistFloor = 1e-24;
constexpr double kSumFloor = 1e-6;

/// Maximum-likelihood LID estimate of one query activation against one
/// bank layer, from squared distances: sum log(r_i/r_k) =
/// 0.5 * sum log(r2_i/r2_k). Distances are accumulated in fixed
/// d-ascending order in double, so the estimate is a pure function of
/// (query row, bank) — bit-identical for any batch composition.
double lid_estimate(std::span<const float> query, const Tensor& bank,
                    std::size_t k, std::vector<double>& dist2) {
  const std::size_t m = bank.dim(0);
  dist2.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const auto row = bank.row_span(j);
    double acc = 0.0;
    for (std::size_t d = 0; d < row.size(); ++d) {
      const double diff =
          static_cast<double>(query[d]) - static_cast<double>(row[d]);
      acc += diff * diff;
    }
    dist2[j] = acc;
  }
  // The k smallest values land in [0, k); the k-th smallest at k-1. Only
  // the *values* matter below, so ties at the boundary cannot change the
  // result.
  std::nth_element(dist2.begin(), dist2.begin() + (k - 1), dist2.end());
  const double rk2 = std::max(dist2[k - 1], kDistFloor);
  double log_ratio_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    log_ratio_sum += 0.5 * std::log(std::max(dist2[i], kDistFloor) / rk2);
  }
  log_ratio_sum = std::min(log_ratio_sum, -kSumFloor);
  return -static_cast<double>(k) / log_ratio_sum;
}

}  // namespace

LidDetector::LidDetector(const Classifier& model, LidConfig config)
    : model_(model.clone()), config_(config) {
  OPAD_EXPECTS(config_.neighbors >= 1);
  OPAD_EXPECTS(config_.max_reference >= 2);
}

LidDetector::LidDetector(const LidDetector& other)
    : Detector(other),
      model_(other.model_.clone()),
      config_(other.config_),
      bank_(other.bank_) {}

void LidDetector::fit(const Dataset& reference, Rng& rng) {
  OPAD_EXPECTS(reference.size() >= 2 && reference.dim() == dim());
  Tensor rows = reference.inputs();
  if (reference.size() > config_.max_reference) {
    const std::vector<std::size_t> picks = rng.sample_without_replacement(
        reference.size(), config_.max_reference);
    rows = Tensor({config_.max_reference, reference.dim()});
    for (std::size_t i = 0; i < picks.size(); ++i) {
      rows.set_row(i, reference.row(picks[i]));
    }
  }
  ActivationTape tape;
  model_.logits(rows, &tape);
  bank_ = std::make_shared<const std::vector<Tensor>>(std::move(tape.layers));
}

std::size_t LidDetector::bank_rows() const {
  return bank_ ? (*bank_)[0].dim(0) : 0;
}

void LidDetector::score_batch(const Tensor& inputs,
                              std::span<double> out) const {
  OPAD_EXPECTS_MSG(bank_ != nullptr, "LidDetector is not fitted");
  OPAD_EXPECTS(inputs.rank() == 2 && inputs.dim(1) == dim());
  OPAD_EXPECTS(out.size() == inputs.dim(0));
  const std::size_t n = inputs.dim(0);
  ActivationTape tape;
  model_.logits(inputs, &tape);
  const std::vector<Tensor>& bank = *bank_;
  OPAD_ENSURES(tape.layer_count() == bank.size());
  const std::size_t layers = bank.size();
  const std::size_t k = std::min(config_.neighbors, bank[0].dim(0) - 1);
  parallel_for(0, n, kRowGrain, [&](std::size_t lo, std::size_t hi) {
    std::vector<double> dist2;
    for (std::size_t r = lo; r < hi; ++r) {
      double total = 0.0;
      for (std::size_t l = 0; l < layers; ++l) {
        total += lid_estimate(tape.layers[l].row_span(r), bank[l], k, dist2);
      }
      out[r] = -(total / static_cast<double>(layers));
    }
  });
}

std::shared_ptr<const Detector> LidDetector::thread_replica() const {
  return std::shared_ptr<const Detector>(new LidDetector(*this));
}

}  // namespace opad
