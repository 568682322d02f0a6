#include "core/test_generator.h"

#include <vector>

#include "util/parallel.h"

namespace opad {

TestCaseGenerator::TestCaseGenerator(AttackPtr attack, NaturalnessPtr metric,
                                     std::optional<double> tau,
                                     ProfilePtr profile,
                                     std::size_t lane_width)
    : attack_(std::move(attack)),
      metric_(std::move(metric)),
      tau_(tau),
      profile_(std::move(profile)),
      lane_width_(lane_width) {
  OPAD_EXPECTS(attack_ != nullptr);
  OPAD_EXPECTS(lane_width_ > 0);
  OPAD_EXPECTS_MSG(!tau_ || metric_ != nullptr,
                   "a tau threshold requires a naturalness metric");
}

std::vector<SeedAttackOutcome> TestCaseGenerator::attack_chunk(
    const Classifier& model, const Dataset& pool,
    std::span<const std::size_t> seed_indices, std::size_t lo, std::size_t hi,
    std::uint64_t stream_base) const {
  OPAD_EXPECTS(lo <= hi && hi <= seed_indices.size());
  std::vector<SeedAttackOutcome> outcomes(hi - lo);

  // Per-chunk replicas: attacks mutate layer caches and the query
  // counter, and some metrics carry forward-pass scratch. Replicas have
  // equal parameters, so results match attacking `model` directly.
  Classifier worker_model = model.clone();
  const AttackPtr attack_replica = attack_->thread_replica();
  const Attack& attack = attack_replica ? *attack_replica : *attack_;

  // Batched pre-check: one forward over the whole lane group decides
  // which seeds the model already mispredicts. Those are clean
  // operational failures — recorded at zero distance instead of
  // spending attack budget searching around them. One query per seed,
  // exactly like the per-seed pre-check this batches.
  const std::size_t m = hi - lo;
  Tensor seed_batch({m, pool.dim()});
  for (std::size_t j = 0; j < m; ++j) {
    outcomes[j].seed = pool.sample(seed_indices[lo + j]);
    seed_batch.set_row(j, outcomes[j].seed.x.data());
  }
  std::vector<int> predicted(m);
  worker_model.predict_batch(seed_batch, predicted);

  std::vector<std::size_t> attacked;  // outcome indices in [0, m)
  attacked.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    SeedAttackOutcome& out = outcomes[j];
    out.seed_fails = predicted[j] != out.seed.y;
    if (out.seed_fails) {
      out.result.success = true;
      out.result.adversarial = out.seed.x;
      out.result.linf_distance = 0.0f;
      out.result.queries = 1;  // the pre-check
    } else {
      attacked.push_back(j);
    }
  }

  // Attack the surviving seeds as one lane batch. Each lane consumes its
  // own stream derived from the seed's global span position, so results
  // match the serial per-seed walk bit for bit regardless of which seeds
  // the pre-check filtered out and of how the span was chunked.
  if (!attacked.empty()) {
    Tensor lane_seeds({attacked.size(), pool.dim()});
    std::vector<int> labels(attacked.size());
    std::vector<Rng> rngs;
    rngs.reserve(attacked.size());
    for (std::size_t a = 0; a < attacked.size(); ++a) {
      const SeedAttackOutcome& out = outcomes[attacked[a]];
      lane_seeds.set_row(a, out.seed.x.data());
      labels[a] = out.seed.y;
      rngs.emplace_back(derive_stream_seed(stream_base, lo + attacked[a]));
    }
    std::vector<AttackResult> results =
        attack.run_batch(worker_model, lane_seeds, labels, rngs);
    for (std::size_t a = 0; a < attacked.size(); ++a) {
      SeedAttackOutcome& out = outcomes[attacked[a]];
      out.result = std::move(results[a]);
      out.result.queries += 1;  // + the pre-check
    }
  }
  return outcomes;
}

void TestCaseGenerator::score_chunk(
    std::span<SeedAttackOutcome> outcomes) const {
  const NaturalnessPtr metric = thread_local_metric(metric_);
  for (SeedAttackOutcome& out : outcomes) {
    if (!out.result.success) continue;
    out.seed_log_density = profile_ ? profile_->log_density(out.seed.x) : 0.0;
    out.naturalness = metric ? metric->score(out.result.adversarial) : 0.0;
  }
}

std::vector<OperationalAE> TestCaseGenerator::fold_chunk(
    std::span<SeedAttackOutcome> outcomes, Classifier& model,
    BudgetTracker& budget, DetectionStats& stats) const {
  // Sequential fold in seed order with the budget cut-off applied between
  // seeds. A seed whose measured cost no longer fits in the remaining
  // budget ends the campaign right there (mark_depleted): the fold keeps
  // the exact affordable prefix, so the accounted total can never overrun
  // query_budget — not even by the final lane group. Consumed queries are
  // folded back into the primary model's counter. Once the budget is
  // depleted every later chunk folds to nothing, matching the serial
  // walk's break.
  std::vector<OperationalAE> accepted;
  for (SeedAttackOutcome& out : outcomes) {
    if (budget.exhausted()) break;
    if (out.result.queries > budget.remaining()) {
      budget.mark_depleted();
      break;
    }
    budget.consume(out.result.queries);
    model.add_queries(out.result.queries);
    stats.seeds_attacked += 1;
    stats.queries_used += out.result.queries;
    if (!out.result.success) continue;
    stats.aes_found += 1;
    if (out.seed_fails) stats.clean_failures += 1;

    OperationalAE ae;
    ae.seed = std::move(out.seed.x);
    ae.label = out.seed.y;
    ae.adversarial = std::move(out.result.adversarial);
    ae.linf_distance = out.result.linf_distance;
    ae.seed_log_density = out.seed_log_density;
    ae.naturalness = out.naturalness;
    ae.is_operational = tau_ ? ae.naturalness >= *tau_ : false;
    if (ae.is_operational) stats.operational_aes += 1;
    accepted.push_back(std::move(ae));
  }
  return accepted;
}

Detection TestCaseGenerator::generate(
    Classifier& model, const Dataset& pool,
    std::span<const std::size_t> seed_indices, BudgetTracker& budget,
    Rng& rng) const {
  const std::size_t n = seed_indices.size();
  Detection detection;
  if (n == 0 || budget.exhausted()) return detection;

  // Determinism contract: every seed gets its own Rng stream derived from
  // its position (one draw from the caller's rng per generate() call), and
  // every worker chunk attacks its own model replica — so the per-seed
  // outcomes are a pure function of (parameters, seed, stream) and
  // identical for any OPAD_THREADS value and any lane width.
  const std::uint64_t stream_base = rng();

  std::vector<std::vector<SeedAttackOutcome>> chunks(
      parallel_chunk_count(0, n, lane_width_));
  parallel_for_chunks(
      0, n, lane_width_,
      [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        chunks[chunk] =
            attack_chunk(model, pool, seed_indices, lo, hi, stream_base);
        score_chunk(chunks[chunk]);
      });

  for (std::vector<SeedAttackOutcome>& chunk : chunks) {
    std::vector<OperationalAE> accepted =
        fold_chunk(chunk, model, budget, detection.stats);
    for (OperationalAE& ae : accepted) detection.aes.push_back(std::move(ae));
  }
  return detection;
}

}  // namespace opad
