// Diagonal-covariance Gaussian mixture model with EM fitting.
//
// This is the primary learned OP estimator (RQ1): fit on (augmented)
// operational data, then queried for densities by the seed sampler (RQ2),
// for density *gradients* by the naturalness-guided fuzzer (RQ3), and for
// importance weights by the retrainer (RQ4).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "op/profile.h"

namespace opad {

class SampleStream;

struct GmmConfig {
  std::size_t components = 4;
  std::size_t max_iterations = 100;
  double tolerance = 1e-5;        // relative log-likelihood change
  double variance_floor = 1e-4;   // keeps components from collapsing
  std::size_t kmeans_iterations = 10;
};

/// Optional per-fit diagnostics returned by fit(). The mean-log-likelihood
/// trace (one entry per EM iteration, computed with the parameters that
/// iteration started from) doubles as the bit-identity witness in the
/// cross-thread-count tests: chunk-ordered folding makes every entry a
/// pure function of (data, config, rng), never of OPAD_THREADS.
struct GmmFitTrace {
  std::vector<double> mean_log_likelihood;
};

class GaussianMixtureModel : public OperationalProfile {
 public:
  struct Component {
    double weight = 0.0;
    std::vector<double> mean;
    std::vector<double> variance;
  };

  /// Constructs directly from components (weights normalised internally).
  explicit GaussianMixtureModel(std::vector<Component> components);

  /// Fits a GMM to the rows of `data` [n, d] with EM (k-means++ init).
  ///
  /// The E step and both sufficient-statistic passes of the M step run in
  /// parallel over fixed point chunks; per-chunk partials (responsibility
  /// mass, weighted sums, weighted squared deviations, log-likelihood) are
  /// folded in chunk order, so the fitted parameters are bit-identical for
  /// any OPAD_THREADS value. `trace`, when non-null, receives the
  /// per-iteration mean log-likelihood.
  static GaussianMixtureModel fit(const Tensor& data, const GmmConfig& config,
                                  Rng& rng, GmmFitTrace* trace = nullptr);

  /// Streaming overload: fits on a chunked SampleStream at O(chunk_size)
  /// memory, multi-pass (k-means++ makes 2 passes per centre, each
  /// k-means/EM iteration 1-2 passes). Reproduces the in-core overload
  /// bit for bit — identical parameters, trace, and rng consumption — for
  /// any stream chunk_size and OPAD_THREADS: every pass stages rows into
  /// windows aligned to fixed global offsets, so the parallel grain
  /// decomposition and every fold order match the in-core path exactly
  /// (see DESIGN.md "Out-of-core streaming"). The second M-step pass
  /// recomputes responsibilities from the pre-update parameters instead
  /// of storing the O(n k) responsibility matrix.
  static GaussianMixtureModel fit(const SampleStream& stream,
                                  const GmmConfig& config, Rng& rng,
                                  GmmFitTrace* trace = nullptr);

  std::size_t dim() const override;
  double log_density(const Tensor& x) const override;
  Tensor sample(Rng& rng) const override;
  bool has_gradient() const override { return true; }
  Tensor log_density_gradient(const Tensor& x) const override;

  /// Posterior responsibilities p(component | x).
  std::vector<double> responsibilities(const Tensor& x) const;

  /// Mean log-likelihood of the rows of `data`.
  double mean_log_likelihood(const Tensor& data) const;

  const std::vector<Component>& components() const { return components_; }

 private:
  double component_log_pdf(std::size_t k, const Tensor& x) const;

  /// Recomputes log_weight_ and log_norm_ from components_. Called at
  /// construction, at the start of every EM iteration, and once more at
  /// the end of both fit() overloads, so every const query reads them
  /// instead of re-deriving d + 1 logarithms per component per call.
  void cache_normalisers();

  std::vector<Component> components_;
  /// Per component: log(weight), and the Gaussian log-normaliser
  /// d*log(2*pi) + sum_j log(variance_j), summed in j order.
  std::vector<double> log_weight_;
  std::vector<double> log_norm_;
};

/// (De)serialisation of a fitted GMM: a learned OP is a deployment
/// artefact that outlives the process that fitted it. Simple tagged
/// binary format; load_gmm throws IoError on malformed input, including
/// non-finite or non-positive weights and variances and non-finite means.
void save_gmm(const GaussianMixtureModel& model, std::ostream& os);
GaussianMixtureModel load_gmm(std::istream& is);
void save_gmm_file(const GaussianMixtureModel& model,
                   const std::string& path);
GaussianMixtureModel load_gmm_file(const std::string& path);

}  // namespace opad
