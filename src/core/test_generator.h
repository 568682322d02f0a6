// RQ3 wrapper — runs an attack over a set of seeds, classifies each found
// misclassification as operational / non-operational via the naturalness
// threshold tau, and accounts model queries against a shared budget.
//
// generate() maps lane-width chunks of the seed span over the global pool
// (pre-check, lane-batched attack and naturalness scoring per chunk) and
// then folds the chunks in seed order. Per-seed rng streams derive from
// (stream_base, global seed position) and the chunk bodies are pure, so
// the Detection is bit-identical at any thread count and lane width.
#pragma once

#include <optional>

#include "attack/attack.h"
#include "core/types.h"
#include "data/dataset.h"
#include "naturalness/metric.h"
#include "op/profile.h"

namespace opad {

/// Everything one seed's attack produced, computed in parallel and folded
/// into the Detection sequentially, in seed order.
struct SeedAttackOutcome {
  LabeledSample seed;
  bool seed_fails = false;
  AttackResult result;
  double seed_log_density = 0.0;
  double naturalness = 0.0;
};

class TestCaseGenerator {
 public:
  /// Seeds attacked together per Attack::run_batch call (and per worker
  /// chunk). Width only trades load balance against batching efficiency;
  /// results are bit-identical at any width (test-pinned).
  static constexpr std::size_t kDefaultLaneWidth = 8;

  /// `metric`/`tau` define the operational-AE acceptance rule; both may be
  /// absent for baselines that do not reason about naturalness (every AE
  /// then counts as operational = false, naturalness = NaN -> 0).
  /// `profile` (optional) annotates each AE with its seed's OP density.
  TestCaseGenerator(AttackPtr attack, NaturalnessPtr metric,
                    std::optional<double> tau, ProfilePtr profile,
                    std::size_t lane_width = kDefaultLaneWidth);

  /// Attacks pool rows `seed_indices`, accounting results in index order
  /// until the budget is exhausted (checked between seeds) or the list
  /// ends. Seeds are partitioned into lanes of `lane_width` and each lane
  /// group is attacked on a model replica through Attack::run_batch — one
  /// batched pre-check decides the clean failures, then the attack drives
  /// all still-active lanes through shared forward/backward passes. Each
  /// seed keeps its own Rng stream (derived from one draw of `rng`), so
  /// the returned Detection — including query accounting on `model` — is
  /// bit-identical for any OPAD_THREADS value and any lane width. Callers
  /// control the parallel over-run per call by the span length; the
  /// budget cut-off is applied after the batch is attacked, and only the
  /// exact affordable prefix of seeds is accounted: the first seed whose
  /// measured cost exceeds the remaining budget is discarded and the
  /// budget is marked depleted, so the consumed total never exceeds the
  /// budget (regression-pinned).
  Detection generate(Classifier& model, const Dataset& pool,
                     std::span<const std::size_t> seed_indices,
                     BudgetTracker& budget, Rng& rng) const;

  const Attack& attack() const { return *attack_; }

 private:
  /// Batched pre-check + lane-batched attack of pool rows
  /// seed_indices[lo, hi); outcome j corresponds to seed_indices[lo + j].
  /// `lo`/`hi` are positions in the *whole* span so each seed's rng
  /// stream derives from its global position: derive_stream_seed(
  /// stream_base, position). Attacks a fresh replica of `model` (the
  /// caller's model is never touched), so concurrent chunks are
  /// independent and the outcome is a pure function of (parameters,
  /// seeds, stream_base).
  std::vector<SeedAttackOutcome> attack_chunk(
      const Classifier& model, const Dataset& pool,
      std::span<const std::size_t> seed_indices, std::size_t lo,
      std::size_t hi, std::uint64_t stream_base) const;

  /// Naturalness + seed OP log-density of every successful outcome (via
  /// the thread-local metric replica). Pure per outcome.
  void score_chunk(std::span<SeedAttackOutcome> outcomes) const;

  /// Accounts one chunk's outcomes against the budget in seed order — the
  /// first seed whose measured cost exceeds remaining() is discarded and
  /// the budget marked depleted — folds stats, charges `model`'s query
  /// counter, and returns the accepted AEs (in seed order, is_operational
  /// already judged). Chunks must be folded in ascending chunk order.
  std::vector<OperationalAE> fold_chunk(std::span<SeedAttackOutcome> outcomes,
                                        Classifier& model,
                                        BudgetTracker& budget,
                                        DetectionStats& stats) const;

  AttackPtr attack_;
  NaturalnessPtr metric_;
  std::optional<double> tau_;
  ProfilePtr profile_;
  std::size_t lane_width_;
};

}  // namespace opad
