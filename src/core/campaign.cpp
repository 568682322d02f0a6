#include "core/campaign.h"

namespace opad {

CampaignResult run_detect_retrain_campaign(Classifier& model,
                                           const TestingMethod& method,
                                           const MethodContext& context,
                                           const Dataset& anchor,
                                           const CampaignConfig& config) {
  OPAD_EXPECTS(config.rounds > 0);
  OPAD_EXPECTS(config.query_budget >= config.rounds);
  const AdversarialRetrainer retrainer(config.retrain);
  const std::uint64_t per_round = config.query_budget / config.rounds;

  CampaignResult result;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    // Independent, deterministic streams per round.
    Rng detect_rng(config.base_seed * 1000003u + round);
    const Detection detection =
        method.detect(model, context, per_round, detect_rng);
    Rng retrain_rng(config.base_seed * 7919u + round);
    const RetrainResult retrain =
        retrainer.retrain(model, anchor, detection.aes, retrain_rng);

    CampaignRound record;
    record.round = round;
    record.detection = detection.stats;
    record.retrain = retrain;
    result.rounds.push_back(record);
    result.totals += detection.stats;
  }
  return result;
}

}  // namespace opad
