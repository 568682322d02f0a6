#include "attack/momentum_pgd.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "attack/lane.h"
#include "tensor/tensor_ops.h"

namespace opad {

namespace {

/// One momentum step: L1-normalise the gradient, fold it into the
/// momentum accumulator, take a signed step on the momentum, project.
/// The exact update both the serial walk and the lane engine apply.
void momentum_step(Tensor& x, Tensor& momentum, std::span<const float> grad,
                   const Tensor& seed, float alpha,
                   const MomentumPgdConfig& config) {
  double l1 = 0.0;
  for (float g : grad) l1 += std::fabs(g);
  if (l1 < 1e-12) l1 = 1e-12;
  auto mv = momentum.data();
  for (std::size_t i = 0; i < mv.size(); ++i) {
    mv[i] = static_cast<float>(config.decay * mv[i] +
                               grad[i] / static_cast<float>(l1));
  }
  if (!config.evasion) {
    auto xv = x.data();
    for (std::size_t i = 0; i < xv.size(); ++i) {
      xv[i] += alpha * (mv[i] > 0.0f ? 1.0f : (mv[i] < 0.0f ? -1.0f : 0.0f));
    }
  } else {
    // Adaptive mode: compose sign(momentum) with the detector-evasion
    // term, exactly as the PGD lane engine does with sign(grad).
    Tensor direction({x.dim(0)});
    auto dv = direction.data();
    for (std::size_t i = 0; i < dv.size(); ++i) {
      dv[i] = mv[i] > 0.0f ? 1.0f : (mv[i] < 0.0f ? -1.0f : 0.0f);
    }
    apply_evasion_term(*config.evasion, x, direction);
    auto xv = x.data();
    for (std::size_t i = 0; i < xv.size(); ++i) {
      xv[i] += alpha * dv[i];
    }
  }
  project_linf_ball(x, seed, config.ball.eps, config.ball.input_lo,
                    config.ball.input_hi);
}

AttackResult success_result(Tensor&& x, const Tensor& seed) {
  AttackResult result;
  result.success = true;
  result.linf_distance = linf_distance(x, seed);
  result.adversarial = std::move(x);
  return result;
}

}  // namespace

MomentumPgd::MomentumPgd(MomentumPgdConfig config)
    : config_(std::move(config)) {
  OPAD_EXPECTS(config_.ball.eps > 0.0f);
  OPAD_EXPECTS(config_.steps > 0 && config_.restarts > 0);
  OPAD_EXPECTS(config_.decay >= 0.0);
  check_evasion_term(config_.evasion);
}

std::shared_ptr<const Attack> MomentumPgd::thread_replica() const {
  if (!config_.evasion) return nullptr;
  NaturalnessPtr replica = config_.evasion->scorer->thread_replica();
  if (!replica) return nullptr;  // scorer shareable -> so are we
  MomentumPgdConfig copy = config_;
  copy.evasion = EvasionTerm{std::move(replica), config_.evasion->lambda};
  return std::make_shared<MomentumPgd>(std::move(copy));
}

AttackResult MomentumPgd::run_impl(Classifier& model, const Tensor& seed,
                                   int label, Rng& rng) const {
  OPAD_EXPECTS(seed.rank() == 1);
  const float alpha =
      config_.step_size > 0.0f
          ? config_.step_size
          : config_.ball.eps / static_cast<float>(config_.steps);
  // Best failed attempt = the iterate closest to the seed in L-inf.
  Tensor best_fail;
  float best_dist = std::numeric_limits<float>::infinity();

  for (std::size_t restart = 0; restart < config_.restarts; ++restart) {
    Tensor x = seed;
    if (restart > 0) {
      lane::linf_random_start(x, seed, config_.ball, rng);
    }
    Tensor momentum({seed.dim(0)});
    for (std::size_t step = 0; step < config_.steps; ++step) {
      const Tensor grad = model.input_gradient(x, label);
      momentum_step(x, momentum, grad.data(), seed, alpha, config_);
      if (is_adversarial(model, x, label)) {
        return success_result(std::move(x), seed);
      }
    }
    const float dist = linf_distance(x, seed);
    if (dist < best_dist) {
      best_dist = dist;
      best_fail = std::move(x);
    }
  }
  AttackResult best;
  best.success = false;
  best.linf_distance = best_dist;
  best.adversarial = std::move(best_fail);
  return best;
}

std::vector<AttackResult> MomentumPgd::run_batch(
    Classifier& model, const Tensor& seeds, std::span<const int> labels,
    std::span<Rng> rngs) const {
  check_batch_args(seeds, labels, rngs);
  const std::size_t n = seeds.dim(0);
  std::vector<AttackResult> results(n);
  if (n == 0) return results;
  const float alpha =
      config_.step_size > 0.0f
          ? config_.step_size
          : config_.ball.eps / static_cast<float>(config_.steps);

  std::vector<Tensor> seed(n), x(n), momentum(n), best_fail(n);
  std::vector<float> best_dist(n, std::numeric_limits<float>::infinity());
  std::vector<std::uint64_t> queries(n, 0);
  for (std::size_t i = 0; i < n; ++i) seed[i] = seeds.row(i);
  std::vector<std::size_t> active(n);
  std::iota(active.begin(), active.end(), std::size_t{0});

  for (std::size_t restart = 0;
       restart < config_.restarts && !active.empty(); ++restart) {
    for (std::size_t l : active) {
      x[l] = seed[l];
      if (restart > 0) {
        lane::linf_random_start(x[l], seed[l], config_.ball, rngs[l]);
      }
      momentum[l] = Tensor({seed[l].dim(0)});
    }
    for (std::size_t step = 0; step < config_.steps && !active.empty();
         ++step) {
      const Tensor grads = lane::gradient_active(model, x, active, labels);
      for (std::size_t a = 0; a < active.size(); ++a) {
        const std::size_t l = active[a];
        queries[l] += 1;
        momentum_step(x[l], momentum[l], grads.row_span(a), seed[l], alpha,
                      config_);
      }
      const std::vector<int> preds = lane::predict_active(model, x, active);
      std::vector<std::size_t> still;
      still.reserve(active.size());
      for (std::size_t a = 0; a < active.size(); ++a) {
        const std::size_t l = active[a];
        queries[l] += 1;
        if (preds[a] != labels[l]) {
          results[l] = success_result(std::move(x[l]), seed[l]);
        } else {
          still.push_back(l);
        }
      }
      active = std::move(still);
    }
    for (std::size_t l : active) {
      const float dist = linf_distance(x[l], seed[l]);
      if (dist < best_dist[l]) {
        best_dist[l] = dist;
        best_fail[l] = std::move(x[l]);
      }
    }
  }

  // Serial epilogue for failed lanes reports without a further query.
  for (std::size_t l : active) {
    results[l].success = false;
    results[l].linf_distance = best_dist[l];
    results[l].adversarial = std::move(best_fail[l]);
  }
  for (std::size_t i = 0; i < n; ++i) results[i].queries = queries[i];
  return results;
}

}  // namespace opad
