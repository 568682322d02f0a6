#include "attack/pgd.h"

#include <limits>
#include <numeric>
#include <vector>

#include "attack/lane.h"
#include "tensor/tensor_ops.h"

namespace opad {

namespace {

float select_alpha(const PgdConfig& config) {
  return config.step_size > 0.0f
             ? config.step_size
             : 2.5f * config.ball.eps / static_cast<float>(config.steps);
}

/// One signed-gradient ascent step + ball/box projection: the exact
/// update both the serial walk and the lane engine apply, so a lane's
/// trajectory is bitwise the serial trajectory whenever its gradient
/// rows are.
void signed_step(Tensor& x, std::span<const float> grad, const Tensor& seed,
                 float alpha, const BallConfig& ball) {
  auto xv = x.data();
  for (std::size_t i = 0; i < xv.size(); ++i) {
    xv[i] +=
        alpha * (grad[i] > 0.0f ? 1.0f : (grad[i] < 0.0f ? -1.0f : 0.0f));
  }
  project_linf_ball(x, seed, ball.eps, ball.input_lo, ball.input_hi);
}

/// Signed step, optionally composed with the detector-evasion term. The
/// no-evasion branch is the untouched classic update, so plain PGD stays
/// bitwise unchanged by the adaptive mode's existence.
void guided_step(Tensor& x, std::span<const float> grad, const Tensor& seed,
                 float alpha, const PgdConfig& config) {
  if (!config.evasion) {
    signed_step(x, grad, seed, alpha, config.ball);
    return;
  }
  Tensor direction({x.dim(0)});
  auto dv = direction.data();
  for (std::size_t i = 0; i < dv.size(); ++i) {
    dv[i] = grad[i] > 0.0f ? 1.0f : (grad[i] < 0.0f ? -1.0f : 0.0f);
  }
  apply_evasion_term(*config.evasion, x, direction);
  auto xv = x.data();
  for (std::size_t i = 0; i < xv.size(); ++i) {
    xv[i] += alpha * dv[i];
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

Pgd::Pgd(PgdConfig config) : config_(std::move(config)) {
  OPAD_EXPECTS(config_.ball.eps > 0.0f);
  OPAD_EXPECTS(config_.steps > 0 && config_.restarts > 0);
  check_evasion_term(config_.evasion);
}

std::shared_ptr<const Attack> Pgd::thread_replica() const {
  if (!config_.evasion) return nullptr;
  NaturalnessPtr replica = config_.evasion->scorer->thread_replica();
  if (!replica) return nullptr;  // scorer shareable -> so are we
  PgdConfig copy = config_;
  copy.evasion = EvasionTerm{std::move(replica), config_.evasion->lambda};
  return std::make_shared<Pgd>(std::move(copy));
}

AttackResult Pgd::run_impl(Classifier& model, const Tensor& seed, int label,
                           Rng& rng) const {
  OPAD_EXPECTS(seed.rank() == 1);
  const float alpha = select_alpha(config_);
  // Best *failed* attempt across restarts: the iterate closest to the
  // seed in L-inf. A near-seed near-miss says more about the local
  // decision boundary than whatever the last restart wandered to.
  Tensor best_fail;
  float best_dist = std::numeric_limits<float>::infinity();

  for (std::size_t restart = 0; restart < config_.restarts; ++restart) {
    Tensor x = seed;
    if (config_.random_start && restart > 0) {
      lane::linf_random_start(x, seed, config_.ball, rng);
    }
    for (std::size_t step = 0; step < config_.steps; ++step) {
      const Tensor grad = model.input_gradient(x, label);
      guided_step(x, grad.data(), seed, alpha, config_);
      if (config_.early_stop && is_adversarial(model, x, label)) {
        return success_result(std::move(x), seed);
      }
    }
    if (!config_.early_stop && is_adversarial(model, x, label)) {
      return success_result(std::move(x), seed);
    }
    const float dist = linf_distance(x, seed);
    if (dist < best_dist) {
      best_dist = dist;
      best_fail = std::move(x);
    }
  }
  AttackResult best;
  best.success = is_adversarial(model, best_fail, label);
  best.linf_distance = best_dist;
  best.adversarial = std::move(best_fail);
  return best;
}

std::vector<AttackResult> Pgd::run_batch(Classifier& model,
                                         const Tensor& seeds,
                                         std::span<const int> labels,
                                         std::span<Rng> rngs) const {
  check_batch_args(seeds, labels, rngs);
  const std::size_t n = seeds.dim(0);
  std::vector<AttackResult> results(n);
  if (n == 0) return results;
  const float alpha = select_alpha(config_);

  std::vector<Tensor> seed(n), x(n), best_fail(n);
  std::vector<float> best_dist(n, std::numeric_limits<float>::infinity());
  std::vector<std::uint64_t> queries(n, 0);
  for (std::size_t i = 0; i < n; ++i) seed[i] = seeds.row(i);
  std::vector<std::size_t> active(n);
  std::iota(active.begin(), active.end(), std::size_t{0});

  // Batched misclassification check over the active set; lanes that
  // succeed record their result and compact out of the set.
  auto check_and_compact = [&]() {
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
  };

  for (std::size_t restart = 0;
       restart < config_.restarts && !active.empty(); ++restart) {
    for (std::size_t l : active) {
      x[l] = seed[l];
      if (config_.random_start && restart > 0) {
        lane::linf_random_start(x[l], seed[l], config_.ball, rngs[l]);
      }
    }
    for (std::size_t step = 0; step < config_.steps && !active.empty();
         ++step) {
      const Tensor grads = lane::gradient_active(model, x, active, labels);
      for (std::size_t a = 0; a < active.size(); ++a) {
        const std::size_t l = active[a];
        queries[l] += 1;
        guided_step(x[l], grads.row_span(a), seed[l], alpha, config_);
      }
      if (config_.early_stop) check_and_compact();
    }
    if (!config_.early_stop && !active.empty()) check_and_compact();
    for (std::size_t l : active) {
      const float dist = linf_distance(x[l], seed[l]);
      if (dist < best_dist[l]) {
        best_dist[l] = dist;
        best_fail[l] = std::move(x[l]);
      }
    }
  }

  if (!active.empty()) {
    // Mirrors the serial epilogue: one final check (and query) of each
    // failed lane's best attempt before reporting it.
    const std::vector<int> preds =
        lane::predict_active(model, best_fail, active);
    for (std::size_t a = 0; a < active.size(); ++a) {
      const std::size_t l = active[a];
      queries[l] += 1;
      results[l].success = preds[a] != labels[l];
      results[l].linf_distance = best_dist[l];
      results[l].adversarial = std::move(best_fail[l]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) results[i].queries = queries[i];
  return results;
}

}  // namespace opad
