#include "op/gmm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "data/stream.h"
#include "util/parallel.h"
#include "util/special_math.h"

namespace opad {

GaussianMixtureModel::GaussianMixtureModel(std::vector<Component> components)
    : components_(std::move(components)) {
  OPAD_EXPECTS(!components_.empty());
  const std::size_t d = components_.front().mean.size();
  OPAD_EXPECTS(d > 0);
  double total = 0.0;
  for (const auto& c : components_) {
    OPAD_EXPECTS(c.mean.size() == d && c.variance.size() == d);
    OPAD_EXPECTS(c.weight > 0.0);
    for (double v : c.variance) OPAD_EXPECTS(v > 0.0);
    total += c.weight;
  }
  for (auto& c : components_) c.weight /= total;
  cache_normalisers();
}

void GaussianMixtureModel::cache_normalisers() {
  const std::size_t d = dim();
  log_weight_.resize(components_.size());
  log_norm_.resize(components_.size());
  for (std::size_t k = 0; k < components_.size(); ++k) {
    const auto& c = components_[k];
    log_weight_[k] = std::log(c.weight);
    double log_det = 0.0;
    for (std::size_t j = 0; j < d; ++j) log_det += std::log(c.variance[j]);
    log_norm_[k] = static_cast<double>(d) * std::log(2.0 * M_PI) + log_det;
  }
}

std::size_t GaussianMixtureModel::dim() const {
  return components_.front().mean.size();
}

double GaussianMixtureModel::component_log_pdf(std::size_t k,
                                               const Tensor& x) const {
  // Callers have checked x against dim(), so the loop indexes the span.
  const auto& c = components_[k];
  const auto xs = x.data();
  double quad = 0.0;
  for (std::size_t j = 0; j < c.mean.size(); ++j) {
    const double d = static_cast<double>(xs[j]) - c.mean[j];
    quad += d * d / c.variance[j];
  }
  return -0.5 * (log_norm_[k] + quad);
}

double GaussianMixtureModel::log_density(const Tensor& x) const {
  OPAD_EXPECTS(x.rank() == 1 && x.dim(0) == dim());
  double acc = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < components_.size(); ++k) {
    acc = log_add_exp(acc, log_weight_[k] + component_log_pdf(k, x));
  }
  return acc;
}

Tensor GaussianMixtureModel::sample(Rng& rng) const {
  std::vector<double> weights;
  weights.reserve(components_.size());
  for (const auto& c : components_) weights.push_back(c.weight);
  const auto& c = components_[rng.categorical(weights)];
  Tensor x({dim()});
  auto xs = x.data();
  for (std::size_t j = 0; j < xs.size(); ++j) {
    xs[j] = static_cast<float>(rng.normal(c.mean[j], std::sqrt(c.variance[j])));
  }
  return x;
}

std::vector<double> GaussianMixtureModel::responsibilities(
    const Tensor& x) const {
  OPAD_EXPECTS(x.rank() == 1 && x.dim(0) == dim());
  std::vector<double> log_terms(components_.size());
  for (std::size_t k = 0; k < components_.size(); ++k) {
    log_terms[k] = log_weight_[k] + component_log_pdf(k, x);
  }
  const double log_z = log_sum_exp(log_terms);
  std::vector<double> resp(components_.size());
  for (std::size_t k = 0; k < components_.size(); ++k) {
    resp[k] = std::exp(log_terms[k] - log_z);
  }
  return resp;
}

Tensor GaussianMixtureModel::log_density_gradient(const Tensor& x) const {
  const auto resp = responsibilities(x);  // checks x against dim()
  Tensor grad({dim()});
  auto g = grad.data();
  const auto xs = x.data();
  for (std::size_t k = 0; k < components_.size(); ++k) {
    const auto& c = components_[k];
    for (std::size_t j = 0; j < g.size(); ++j) {
      g[j] += static_cast<float>(
          resp[k] * -(static_cast<double>(xs[j]) - c.mean[j]) /
          c.variance[j]);
    }
  }
  return grad;
}

double GaussianMixtureModel::mean_log_likelihood(const Tensor& data) const {
  OPAD_EXPECTS(data.rank() == 2 && data.dim(1) == dim() && data.dim(0) > 0);
  const std::size_t n = data.dim(0);
  // Per-chunk partial totals folded in chunk order: thread-count
  // invariant (see DESIGN.md "Threading model").
  const std::size_t grain = 64;
  std::vector<double> partial(parallel_chunk_count(0, n, grain), 0.0);
  parallel_for_chunks(0, n, grain,
                      [&](std::size_t c, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) {
                          partial[c] += log_density(data.row(i));
                        }
                      });
  double total = 0.0;
  for (double p : partial) total += p;
  return total / static_cast<double>(n);
}

namespace {

/// k-means++ initial centres over the rows of `data`.
std::vector<std::size_t> kmeanspp_centres(const Tensor& data, std::size_t k,
                                          Rng& rng) {
  const std::size_t n = data.dim(0);
  std::vector<std::size_t> centres;
  centres.push_back(rng.uniform_index(n));
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  while (centres.size() < k) {
    const auto centre_row = data.row_span(centres.back());
    // Disjoint per-point writes: bit-identical for any thread count.
    parallel_for(0, n, 128, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const auto row = data.row_span(i);
        double d = 0.0;
        for (std::size_t j = 0; j < row.size(); ++j) {
          const double diff = static_cast<double>(row[j]) - centre_row[j];
          d += diff * diff;
        }
        min_dist[i] = std::min(min_dist[i], d);
      }
    });
    double total = 0.0;
    for (double d : min_dist) total += d;
    if (total <= 0.0) {
      // All points coincide with centres; fill the rest uniformly.
      centres.push_back(rng.uniform_index(n));
      continue;
    }
    centres.push_back(rng.categorical(min_dist));
  }
  return centres;
}

}  // namespace

GaussianMixtureModel GaussianMixtureModel::fit(const Tensor& data,
                                               const GmmConfig& config,
                                               Rng& rng, GmmFitTrace* trace) {
  OPAD_EXPECTS(data.rank() == 2);
  const std::size_t n = data.dim(0), d = data.dim(1);
  OPAD_EXPECTS_MSG(n >= config.components,
                   "need at least as many samples as components");
  OPAD_EXPECTS(config.components > 0 && config.max_iterations > 0);
  if (trace) trace->mean_log_likelihood.clear();

  // --- initialise from a few rounds of k-means ---
  const auto k = config.components;
  auto centre_idx = kmeanspp_centres(data, k, rng);
  std::vector<std::vector<double>> centres(k, std::vector<double>(d));
  for (std::size_t c = 0; c < k; ++c) {
    const auto row = data.row_span(centre_idx[c]);
    for (std::size_t j = 0; j < d; ++j) centres[c][j] = row[j];
  }
  std::vector<std::size_t> assign(n, 0);
  for (std::size_t iter = 0; iter < config.kmeans_iterations; ++iter) {
    // Assignment: pure per-point argmin, disjoint writes.
    parallel_for(0, n, 64, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const auto row = data.row_span(i);
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < k; ++c) {
          double dist = 0.0;
          for (std::size_t j = 0; j < d; ++j) {
            const double diff = static_cast<double>(row[j]) - centres[c][j];
            dist += diff * diff;
          }
          if (dist < best) {
            best = dist;
            assign[i] = c;
          }
        }
      }
    });
    // Update: one pass over the points (contributions still fold in
    // ascending i per cluster, exactly like the old per-cluster scans).
    std::vector<std::vector<double>> sum(k, std::vector<double>(d, 0.0));
    std::vector<std::size_t> count(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = data.row_span(i);
      auto& s = sum[assign[i]];
      for (std::size_t j = 0; j < d; ++j) s[j] += row[j];
      ++count[assign[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) continue;
      for (std::size_t j = 0; j < d; ++j) {
        centres[c][j] = sum[c][j] / static_cast<double>(count[c]);
      }
    }
  }

  // Global variance, used as the initial spread and as a fallback.
  std::vector<double> global_var(d, config.variance_floor);
  {
    std::vector<double> mean_v(d, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = data.row_span(i);
      for (std::size_t j = 0; j < d; ++j) mean_v[j] += row[j];
    }
    for (double& m : mean_v) m /= static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = data.row_span(i);
      for (std::size_t j = 0; j < d; ++j) {
        const double diff = static_cast<double>(row[j]) - mean_v[j];
        global_var[j] += diff * diff / static_cast<double>(n);
      }
    }
  }

  std::vector<Component> comps(k);
  for (std::size_t c = 0; c < k; ++c) {
    comps[c].weight = 1.0 / static_cast<double>(k);
    comps[c].mean = centres[c];
    comps[c].variance = global_var;
  }
  GaussianMixtureModel model(comps);

  // --- EM iterations ---
  // The E step and both sufficient-statistic passes of the M step run over
  // fixed point chunks; every chunk accumulates its own partial totals
  // (log-likelihood, responsibility mass nk, weighted sums, weighted
  // squared deviations) which are then folded in chunk order. The chunk
  // decomposition depends only on (n, grain), so the fitted parameters are
  // bit-identical for every OPAD_THREADS value. Dead-component reseeding
  // stays serial and component-ascending to preserve the rng draw order.
  constexpr std::size_t kPointGrain = 32;
  const std::size_t chunks = parallel_chunk_count(0, n, kPointGrain);
  std::vector<double> resp(n * k);
  std::vector<double> ll_partial(chunks);
  std::vector<double> nk_partial(chunks * k);
  std::vector<double> stat_partial(chunks * k * d);  // means, then variances
  const std::vector<double>& log_weight = model.log_weight_;
  const std::vector<double>& log_norm = model.log_norm_;
  std::vector<double> nk(k), mean_sum(k * d);
  std::vector<char> dead(k);
  double prev_ll = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    // Per-iteration constants hoisted out of the per-point loop.
    model.cache_normalisers();
    std::fill(ll_partial.begin(), ll_partial.end(), 0.0);
    std::fill(nk_partial.begin(), nk_partial.end(), 0.0);
    std::fill(stat_partial.begin(), stat_partial.end(), 0.0);
    // Fused E step + first M-step pass: responsibilities, per-chunk
    // log-likelihood, responsibility mass, and weighted sums.
    parallel_for_chunks(
        0, n, kPointGrain,
        [&](std::size_t ch, std::size_t lo, std::size_t hi) {
          std::vector<double> log_terms(k);
          double* nk_p = nk_partial.data() + ch * k;
          double* mean_p = stat_partial.data() + ch * k * d;
          for (std::size_t i = lo; i < hi; ++i) {
            const auto row = data.row_span(i);
            for (std::size_t c = 0; c < k; ++c) {
              const auto& comp = model.components_[c];
              double quad = 0.0;
              for (std::size_t j = 0; j < d; ++j) {
                const double diff =
                    static_cast<double>(row[j]) - comp.mean[j];
                quad += diff * diff / comp.variance[j];
              }
              log_terms[c] = log_weight[c] - 0.5 * (log_norm[c] + quad);
            }
            const double log_z = log_sum_exp(log_terms);
            ll_partial[ch] += log_z;
            double* r = resp.data() + i * k;
            for (std::size_t c = 0; c < k; ++c) {
              r[c] = std::exp(log_terms[c] - log_z);
              nk_p[c] += r[c];
              double* m = mean_p + c * d;
              for (std::size_t j = 0; j < d; ++j) {
                m[j] += r[c] * static_cast<double>(row[j]);
              }
            }
          }
        });
    // Chunk-ordered folds.
    double ll = 0.0;
    for (std::size_t ch = 0; ch < chunks; ++ch) ll += ll_partial[ch];
    std::fill(nk.begin(), nk.end(), 0.0);
    std::fill(mean_sum.begin(), mean_sum.end(), 0.0);
    for (std::size_t ch = 0; ch < chunks; ++ch) {
      for (std::size_t c = 0; c < k; ++c) {
        nk[c] += nk_partial[ch * k + c];
        const double* m = stat_partial.data() + (ch * k + c) * d;
        for (std::size_t j = 0; j < d; ++j) mean_sum[c * d + j] += m[j];
      }
    }
    // Mean update; dead components re-seed at a random data point with
    // global spread (serial, c-ascending: rng order matters).
    std::fill(dead.begin(), dead.end(), 0);
    for (std::size_t c = 0; c < k; ++c) {
      auto& comp = model.components_[c];
      if (nk[c] < 1e-10) {
        dead[c] = 1;
        const auto row = data.row_span(rng.uniform_index(n));
        for (std::size_t j = 0; j < d; ++j) comp.mean[j] = row[j];
        comp.variance = global_var;
        comp.weight = 1.0 / static_cast<double>(n);
        continue;
      }
      for (std::size_t j = 0; j < d; ++j) {
        comp.mean[j] = mean_sum[c * d + j] / nk[c];
      }
    }
    // Second M-step pass: weighted squared deviations about the fresh
    // means, again per-chunk with a chunk-ordered fold.
    std::fill(stat_partial.begin(), stat_partial.end(), 0.0);
    parallel_for_chunks(
        0, n, kPointGrain,
        [&](std::size_t ch, std::size_t lo, std::size_t hi) {
          double* var_p = stat_partial.data() + ch * k * d;
          for (std::size_t i = lo; i < hi; ++i) {
            const auto row = data.row_span(i);
            const double* r = resp.data() + i * k;
            for (std::size_t c = 0; c < k; ++c) {
              if (dead[c]) continue;
              const auto& mean = model.components_[c].mean;
              double* v = var_p + c * d;
              for (std::size_t j = 0; j < d; ++j) {
                const double diff = static_cast<double>(row[j]) - mean[j];
                v[j] += r[c] * diff * diff;
              }
            }
          }
        });
    for (std::size_t c = 0; c < k; ++c) {
      if (dead[c]) continue;
      auto& comp = model.components_[c];
      for (std::size_t j = 0; j < d; ++j) {
        double var = 0.0;
        for (std::size_t ch = 0; ch < chunks; ++ch) {
          var += stat_partial[(ch * k + c) * d + j];
        }
        comp.variance[j] = std::max(var / nk[c], config.variance_floor);
      }
      comp.weight = nk[c] / static_cast<double>(n);
    }
    // Renormalise weights (dead-component reseeding can unbalance them).
    double wsum = 0.0;
    for (const auto& comp : model.components_) wsum += comp.weight;
    for (auto& comp : model.components_) comp.weight /= wsum;

    const double mean_ll = ll / static_cast<double>(n);
    if (trace) trace->mean_log_likelihood.push_back(mean_ll);
    if (iter > 0 &&
        std::fabs(mean_ll - prev_ll) <
            config.tolerance * (std::fabs(prev_ll) + 1e-12)) {
      break;
    }
    prev_ll = mean_ll;
  }
  model.cache_normalisers();
  return model;
}

namespace {

/// Staging-window width for the streaming fit. A multiple of every
/// parallel grain used by the in-core fit (32-point EM chunks, 64-point
/// k-means assignment, 128-point k-means++ scans), so window-local chunk
/// boundaries land on the same global row offsets as the in-core
/// decomposition — the precondition for bitwise-equal chunk-ordered
/// folds at any stream chunk_size.
constexpr std::size_t kStreamStageRows = 8192;

}  // namespace

GaussianMixtureModel GaussianMixtureModel::fit(const SampleStream& stream,
                                               const GmmConfig& config,
                                               Rng& rng, GmmFitTrace* trace) {
  const std::size_t n = stream.size(), d = stream.dim();
  OPAD_EXPECTS_MSG(n >= config.components,
                   "need at least as many samples as components");
  OPAD_EXPECTS(config.components > 0 && config.max_iterations > 0);
  if (trace) trace->mean_log_likelihood.clear();

  const auto k = config.components;

  // --- k-means++ centres ---
  // The in-core version keeps min_dist[n] and hands it to
  // rng.categorical. Out of core we re-derive both from two extra passes
  // (O(k) distance evaluations per point instead of O(1) amortised): the
  // running min over all centres so far equals the incrementally updated
  // min_dist, the flat ascending total equals categorical's internal
  // total, and the ascending subtract-scan with a last-positive fallback
  // replays categorical's selection — one uniform() draw, identical
  // result, identical rng stream.
  std::vector<std::vector<float>> centre_rows;
  auto push_centre = [&](std::size_t idx) {
    const LabeledSample s = stream.sample_at(idx);
    centre_rows.emplace_back(s.x.data().begin(), s.x.data().end());
  };
  push_centre(rng.uniform_index(n));

  std::vector<double> win_dist;
  auto window_min_dist = [&](const Tensor& rows) {
    const std::size_t m = rows.dim(0);
    win_dist.assign(m, 0.0);
    // Disjoint per-point writes: bit-identical for any thread count.
    parallel_for(0, m, 128, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const auto row = rows.row_span(i);
        double best = std::numeric_limits<double>::infinity();
        for (const auto& centre : centre_rows) {
          double dist = 0.0;
          for (std::size_t j = 0; j < d; ++j) {
            const double diff = static_cast<double>(row[j]) - centre[j];
            dist += diff * diff;
          }
          best = std::min(best, dist);
        }
        win_dist[i] = best;
      }
    });
  };

  while (centre_rows.size() < k) {
    double total = 0.0;
    for_each_staged_window(
        stream, kStreamStageRows,
        [&](std::size_t, const Tensor& rows, std::span<const int>) {
          window_min_dist(rows);
          for (double dist : win_dist) total += dist;
        });
    if (total <= 0.0) {
      // All points coincide with centres; fill the rest uniformly.
      push_centre(rng.uniform_index(n));
      continue;
    }
    double target = rng.uniform() * total;
    std::size_t chosen = n;
    std::size_t last_positive = n;
    for_each_staged_window(
        stream, kStreamStageRows,
        [&](std::size_t start, const Tensor& rows, std::span<const int>) {
          window_min_dist(rows);
          for (std::size_t i = 0; i < rows.dim(0); ++i) {
            if (win_dist[i] > 0.0) last_positive = start + i;
            target -= win_dist[i];
            if (target < 0.0) {
              chosen = start + i;
              return false;
            }
          }
          return true;
        });
    // Floating-point slack: fall back to the last positive-weight index,
    // exactly like categorical (total > 0 guarantees one exists).
    if (chosen == n) chosen = last_positive != n ? last_positive : n - 1;
    push_centre(chosen);
  }

  // --- k-means iterations ---
  std::vector<std::vector<double>> centres(k, std::vector<double>(d));
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t j = 0; j < d; ++j) centres[c][j] = centre_rows[c][j];
  }
  std::vector<std::size_t> win_assign;
  for (std::size_t iter = 0; iter < config.kmeans_iterations; ++iter) {
    std::vector<std::vector<double>> sum(k, std::vector<double>(d, 0.0));
    std::vector<std::size_t> count(k, 0);
    for_each_staged_window(
        stream, kStreamStageRows,
        [&](std::size_t, const Tensor& rows, std::span<const int>) {
          const std::size_t m = rows.dim(0);
          win_assign.assign(m, 0);
          // Assignment: pure per-point argmin, disjoint writes.
          parallel_for(0, m, 64, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              const auto row = rows.row_span(i);
              double best = std::numeric_limits<double>::infinity();
              for (std::size_t c = 0; c < k; ++c) {
                double dist = 0.0;
                for (std::size_t j = 0; j < d; ++j) {
                  const double diff =
                      static_cast<double>(row[j]) - centres[c][j];
                  dist += diff * diff;
                }
                if (dist < best) {
                  best = dist;
                  win_assign[i] = c;
                }
              }
            }
          });
          // Update: contributions fold in ascending global i per cluster.
          for (std::size_t i = 0; i < m; ++i) {
            const auto row = rows.row_span(i);
            auto& s = sum[win_assign[i]];
            for (std::size_t j = 0; j < d; ++j) s[j] += row[j];
            ++count[win_assign[i]];
          }
        });
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) continue;
      for (std::size_t j = 0; j < d; ++j) {
        centres[c][j] = sum[c][j] / static_cast<double>(count[c]);
      }
    }
  }

  // Global variance: same two flat ascending passes as in core, split
  // across staging windows.
  std::vector<double> global_var(d, config.variance_floor);
  {
    std::vector<double> mean_v(d, 0.0);
    for_each_staged_window(
        stream, kStreamStageRows,
        [&](std::size_t, const Tensor& rows, std::span<const int>) {
          for (std::size_t i = 0; i < rows.dim(0); ++i) {
            const auto row = rows.row_span(i);
            for (std::size_t j = 0; j < d; ++j) mean_v[j] += row[j];
          }
        });
    for (double& m : mean_v) m /= static_cast<double>(n);
    for_each_staged_window(
        stream, kStreamStageRows,
        [&](std::size_t, const Tensor& rows, std::span<const int>) {
          for (std::size_t i = 0; i < rows.dim(0); ++i) {
            const auto row = rows.row_span(i);
            for (std::size_t j = 0; j < d; ++j) {
              const double diff = static_cast<double>(row[j]) - mean_v[j];
              global_var[j] += diff * diff / static_cast<double>(n);
            }
          }
        });
  }

  std::vector<Component> comps(k);
  for (std::size_t c = 0; c < k; ++c) {
    comps[c].weight = 1.0 / static_cast<double>(k);
    comps[c].mean = centres[c];
    comps[c].variance = global_var;
  }
  GaussianMixtureModel model(comps);

  // --- EM iterations ---
  // Same fused-pass structure as the in-core fit, two staged stream
  // passes per iteration. Window partials fold into the global
  // accumulators in global chunk order (windows ascend, chunks inside a
  // window ascend, and window boundaries are chunk-aligned), so every
  // per-accumulator addition sequence matches the in-core fold exactly.
  // The one structural difference: instead of storing the O(n k)
  // responsibility matrix for the variance pass, the second pass
  // recomputes responsibilities from the snapshotted pre-update
  // parameters — the same arithmetic on the same inputs, hence the same
  // bits.
  constexpr std::size_t kPointGrain = 32;  // must match the in-core fit
  static_assert(kStreamStageRows % kPointGrain == 0);
  const std::size_t max_wchunks =
      parallel_chunk_count(0, std::min(n, kStreamStageRows), kPointGrain);
  std::vector<double> ll_partial(max_wchunks);
  std::vector<double> nk_partial(max_wchunks * k);
  std::vector<double> stat_partial(max_wchunks * k * d);
  const std::vector<double>& log_weight = model.log_weight_;
  const std::vector<double>& log_norm = model.log_norm_;
  std::vector<double> nk(k), mean_sum(k * d), var_sum(k * d);
  std::vector<double> old_mean(k * d), old_var(k * d);
  std::vector<char> dead(k);
  double prev_ll = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    model.cache_normalisers();
    // Snapshot the pre-update parameters: the variance pass recomputes
    // responsibilities against these after the means have moved.
    for (std::size_t c = 0; c < k; ++c) {
      const auto& comp = model.components_[c];
      std::copy(comp.mean.begin(), comp.mean.end(),
                old_mean.begin() + static_cast<std::ptrdiff_t>(c * d));
      std::copy(comp.variance.begin(), comp.variance.end(),
                old_var.begin() + static_cast<std::ptrdiff_t>(c * d));
    }
    double ll = 0.0;
    std::fill(nk.begin(), nk.end(), 0.0);
    std::fill(mean_sum.begin(), mean_sum.end(), 0.0);
    // Fused E step + first M-step pass.
    for_each_staged_window(
        stream, kStreamStageRows,
        [&](std::size_t, const Tensor& rows, std::span<const int>) {
          const std::size_t m = rows.dim(0);
          const std::size_t wchunks = parallel_chunk_count(0, m, kPointGrain);
          std::fill(ll_partial.begin(), ll_partial.begin() + wchunks, 0.0);
          std::fill(nk_partial.begin(), nk_partial.begin() + wchunks * k,
                    0.0);
          std::fill(stat_partial.begin(),
                    stat_partial.begin() + wchunks * k * d, 0.0);
          parallel_for_chunks(
              0, m, kPointGrain,
              [&](std::size_t ch, std::size_t lo, std::size_t hi) {
                std::vector<double> log_terms(k);
                double* nk_p = nk_partial.data() + ch * k;
                double* mean_p = stat_partial.data() + ch * k * d;
                for (std::size_t i = lo; i < hi; ++i) {
                  const auto row = rows.row_span(i);
                  for (std::size_t c = 0; c < k; ++c) {
                    const double* mu = old_mean.data() + c * d;
                    const double* va = old_var.data() + c * d;
                    double quad = 0.0;
                    for (std::size_t j = 0; j < d; ++j) {
                      const double diff =
                          static_cast<double>(row[j]) - mu[j];
                      quad += diff * diff / va[j];
                    }
                    log_terms[c] = log_weight[c] - 0.5 * (log_norm[c] + quad);
                  }
                  const double log_z = log_sum_exp(log_terms);
                  ll_partial[ch] += log_z;
                  for (std::size_t c = 0; c < k; ++c) {
                    const double r = std::exp(log_terms[c] - log_z);
                    nk_p[c] += r;
                    double* mp = mean_p + c * d;
                    for (std::size_t j = 0; j < d; ++j) {
                      mp[j] += r * static_cast<double>(row[j]);
                    }
                  }
                }
              });
          // Global-chunk-ordered folds.
          for (std::size_t ch = 0; ch < wchunks; ++ch) ll += ll_partial[ch];
          for (std::size_t ch = 0; ch < wchunks; ++ch) {
            for (std::size_t c = 0; c < k; ++c) {
              nk[c] += nk_partial[ch * k + c];
              const double* mp = stat_partial.data() + (ch * k + c) * d;
              for (std::size_t j = 0; j < d; ++j) {
                mean_sum[c * d + j] += mp[j];
              }
            }
          }
        });
    // Mean update; dead components re-seed at a random stream row with
    // global spread (serial, c-ascending: rng order matters).
    std::fill(dead.begin(), dead.end(), 0);
    for (std::size_t c = 0; c < k; ++c) {
      auto& comp = model.components_[c];
      if (nk[c] < 1e-10) {
        dead[c] = 1;
        const LabeledSample s = stream.sample_at(rng.uniform_index(n));
        const auto row = s.x.data();
        for (std::size_t j = 0; j < d; ++j) comp.mean[j] = row[j];
        comp.variance = global_var;
        comp.weight = 1.0 / static_cast<double>(n);
        continue;
      }
      for (std::size_t j = 0; j < d; ++j) {
        comp.mean[j] = mean_sum[c * d + j] / nk[c];
      }
    }
    // Second M-step pass: weighted squared deviations about the fresh
    // means, responsibilities recomputed from the snapshot.
    std::fill(var_sum.begin(), var_sum.end(), 0.0);
    for_each_staged_window(
        stream, kStreamStageRows,
        [&](std::size_t, const Tensor& rows, std::span<const int>) {
          const std::size_t m = rows.dim(0);
          const std::size_t wchunks = parallel_chunk_count(0, m, kPointGrain);
          std::fill(stat_partial.begin(),
                    stat_partial.begin() + wchunks * k * d, 0.0);
          parallel_for_chunks(
              0, m, kPointGrain,
              [&](std::size_t ch, std::size_t lo, std::size_t hi) {
                std::vector<double> log_terms(k), resp(k);
                double* var_p = stat_partial.data() + ch * k * d;
                for (std::size_t i = lo; i < hi; ++i) {
                  const auto row = rows.row_span(i);
                  for (std::size_t c = 0; c < k; ++c) {
                    const double* mu = old_mean.data() + c * d;
                    const double* va = old_var.data() + c * d;
                    double quad = 0.0;
                    for (std::size_t j = 0; j < d; ++j) {
                      const double diff =
                          static_cast<double>(row[j]) - mu[j];
                      quad += diff * diff / va[j];
                    }
                    log_terms[c] = log_weight[c] - 0.5 * (log_norm[c] + quad);
                  }
                  const double log_z = log_sum_exp(log_terms);
                  for (std::size_t c = 0; c < k; ++c) {
                    resp[c] = std::exp(log_terms[c] - log_z);
                  }
                  for (std::size_t c = 0; c < k; ++c) {
                    if (dead[c]) continue;
                    const auto& mean = model.components_[c].mean;
                    double* v = var_p + c * d;
                    for (std::size_t j = 0; j < d; ++j) {
                      const double diff =
                          static_cast<double>(row[j]) - mean[j];
                      v[j] += resp[c] * diff * diff;
                    }
                  }
                }
              });
          for (std::size_t ch = 0; ch < wchunks; ++ch) {
            for (std::size_t c = 0; c < k; ++c) {
              const double* vp = stat_partial.data() + (ch * k + c) * d;
              for (std::size_t j = 0; j < d; ++j) {
                var_sum[c * d + j] += vp[j];
              }
            }
          }
        });
    for (std::size_t c = 0; c < k; ++c) {
      if (dead[c]) continue;
      auto& comp = model.components_[c];
      for (std::size_t j = 0; j < d; ++j) {
        comp.variance[j] =
            std::max(var_sum[c * d + j] / nk[c], config.variance_floor);
      }
      comp.weight = nk[c] / static_cast<double>(n);
    }
    double wsum = 0.0;
    for (const auto& comp : model.components_) wsum += comp.weight;
    for (auto& comp : model.components_) comp.weight /= wsum;

    const double mean_ll = ll / static_cast<double>(n);
    if (trace) trace->mean_log_likelihood.push_back(mean_ll);
    if (iter > 0 &&
        std::fabs(mean_ll - prev_ll) <
            config.tolerance * (std::fabs(prev_ll) + 1e-12)) {
      break;
    }
    prev_ll = mean_ll;
  }
  model.cache_normalisers();
  return model;
}

namespace {

constexpr std::uint32_t kGmmMagic = 0x4f50474d;  // "OPGM"

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw IoError("unexpected end of GMM stream");
  return value;
}

}  // namespace

void save_gmm(const GaussianMixtureModel& model, std::ostream& os) {
  write_pod(os, kGmmMagic);
  write_pod(os, static_cast<std::uint64_t>(model.components().size()));
  write_pod(os, static_cast<std::uint64_t>(model.dim()));
  for (const auto& c : model.components()) {
    write_pod(os, c.weight);
    for (double m : c.mean) write_pod(os, m);
    for (double v : c.variance) write_pod(os, v);
  }
  if (!os) throw IoError("failed writing GMM stream");
}

GaussianMixtureModel load_gmm(std::istream& is) {
  if (read_pod<std::uint32_t>(is) != kGmmMagic) {
    throw IoError("bad magic in GMM stream");
  }
  const auto count = read_pod<std::uint64_t>(is);
  const auto dim = read_pod<std::uint64_t>(is);
  if (count == 0 || dim == 0 || count > (1u << 20) || dim > (1u << 20)) {
    throw IoError("implausible GMM header");
  }
  // Grown as components arrive, so a corrupt count fails on the short
  // stream instead of allocating up front.
  std::vector<GaussianMixtureModel::Component> components;
  double total_weight = 0.0;
  for (std::uint64_t k = 0; k < count; ++k) {
    GaussianMixtureModel::Component& c = components.emplace_back();
    c.weight = read_pod<double>(is);
    c.mean.resize(dim);
    c.variance.resize(dim);
    for (double& m : c.mean) m = read_pod<double>(is);
    for (double& v : c.variance) v = read_pod<double>(is);
    if (!(c.weight > 0.0) || !std::isfinite(c.weight)) {
      throw IoError("non-positive or non-finite weight in GMM stream");
    }
    for (double m : c.mean) {
      if (!std::isfinite(m)) throw IoError("non-finite mean in GMM stream");
    }
    for (double v : c.variance) {
      if (!(v > 0.0) || !std::isfinite(v)) {
        throw IoError("non-positive or non-finite variance in GMM stream");
      }
    }
    total_weight += c.weight;
  }
  if (!std::isfinite(total_weight)) {
    throw IoError("GMM stream weights overflow their sum");
  }
  return GaussianMixtureModel(std::move(components));
}

void save_gmm_file(const GaussianMixtureModel& model,
                   const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open " + path + " for writing");
  save_gmm(model, out);
}

GaussianMixtureModel load_gmm_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open " + path + " for reading");
  return load_gmm(in);
}

}  // namespace opad
