#include "nn/optimizer.h"

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/error.h"

namespace opad {

Optimizer::Optimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads)
    : params_(std::move(params)), grads_(std::move(grads)) {
  OPAD_EXPECTS_MSG(params_.size() == grads_.size(),
                   "parameter/gradient list size mismatch");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    OPAD_EXPECTS(params_[i] != nullptr && grads_[i] != nullptr);
    OPAD_EXPECTS_MSG(params_[i]->shape() == grads_[i]->shape(),
                     "parameter/gradient shape mismatch at index " << i);
  }
}

void Optimizer::set_learning_rate(double lr) {
  OPAD_EXPECTS(lr > 0.0);
  lr_ = lr;
}

Sgd::Sgd(std::vector<Tensor*> params, std::vector<Tensor*> grads, double lr,
         double momentum, double weight_decay)
    : Optimizer(std::move(params), std::move(grads)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  OPAD_EXPECTS(momentum >= 0.0 && momentum < 1.0);
  OPAD_EXPECTS(weight_decay >= 0.0);
  set_learning_rate(lr);
  if (momentum_ > 0.0) {
    velocity_.reserve(params_.size());
    for (Tensor* p : params_) velocity_.emplace_back(p->shape());
  }
}

// Sgd::step runs four parameters per SSE instruction. Each lane performs
// the scalar loop's own operations in its order, one rounding per
// multiply and per add, so the update is bitwise the scalar one; this TU
// is compiled with -ffp-contract=off (src/nn/CMakeLists.txt) so that an
// FMA-capable target cannot fuse a multiply into the following add. The
// weight-decay term is formed even at weight decay 0: g + 0 * p is not
// always g (-0 + +0 is +0, and 0 * Inf is NaN).
void Sgd::step() {
  const auto lr = static_cast<float>(lr_);
  const auto mu = static_cast<float>(momentum_);
  const auto wd = static_cast<float>(weight_decay_);
#if defined(__SSE2__)
  const __m128 lr4 = _mm_set1_ps(lr);
  const __m128 mu4 = _mm_set1_ps(mu);
  const __m128 wd4 = _mm_set1_ps(wd);
#endif
  for (std::size_t i = 0; i < params_.size(); ++i) {
    float* p = params_[i]->data().data();
    const float* g = grads_[i]->data().data();
    const std::size_t n = params_[i]->size();
    std::size_t j = 0;
    if (momentum_ > 0.0) {
      float* v = velocity_[i].data().data();
#if defined(__SSE2__)
      for (; j + 4 <= n; j += 4) {
        const __m128 pj = _mm_loadu_ps(p + j);
        const __m128 grad =
            _mm_add_ps(_mm_loadu_ps(g + j), _mm_mul_ps(wd4, pj));
        const __m128 vj =
            _mm_add_ps(_mm_mul_ps(mu4, _mm_loadu_ps(v + j)), grad);
        _mm_storeu_ps(v + j, vj);
        _mm_storeu_ps(p + j, _mm_sub_ps(pj, _mm_mul_ps(lr4, vj)));
      }
#endif
      for (; j < n; ++j) {
        const float grad = g[j] + wd * p[j];
        v[j] = mu * v[j] + grad;
        p[j] -= lr * v[j];
      }
    } else {
#if defined(__SSE2__)
      for (; j + 4 <= n; j += 4) {
        const __m128 pj = _mm_loadu_ps(p + j);
        const __m128 grad =
            _mm_add_ps(_mm_loadu_ps(g + j), _mm_mul_ps(wd4, pj));
        _mm_storeu_ps(p + j, _mm_sub_ps(pj, _mm_mul_ps(lr4, grad)));
      }
#endif
      for (; j < n; ++j) {
        p[j] -= lr * (g[j] + wd * p[j]);
      }
    }
  }
}

Adam::Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads, double lr,
           double beta1, double beta2, double eps, double weight_decay)
    : Optimizer(std::move(params), std::move(grads)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  OPAD_EXPECTS(beta1 >= 0.0 && beta1 < 1.0);
  OPAD_EXPECTS(beta2 >= 0.0 && beta2 < 1.0);
  OPAD_EXPECTS(eps > 0.0);
  OPAD_EXPECTS(weight_decay >= 0.0);
  set_learning_rate(lr);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor* p : params_) {
    m_.emplace_back(p->shape());
    v_.emplace_back(p->shape());
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const auto lr = static_cast<float>(lr_ * std::sqrt(bc2) / bc1);
  const auto b1 = static_cast<float>(beta1_);
  const auto b2 = static_cast<float>(beta2_);
  const auto eps = static_cast<float>(eps_);
  const auto wd = static_cast<float>(weight_decay_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto p = params_[i]->data();
    auto g = grads_[i]->data();
    auto m = m_[i].data();
    auto v = v_[i].data();
    for (std::size_t j = 0; j < p.size(); ++j) {
      const float grad = g[j] + wd * p[j];
      m[j] = b1 * m[j] + (1.0f - b1) * grad;
      v[j] = b2 * v[j] + (1.0f - b2) * grad * grad;
      p[j] -= lr * m[j] / (std::sqrt(v[j]) + eps);
    }
  }
}

}  // namespace opad
