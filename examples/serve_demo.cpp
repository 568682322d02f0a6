// Scenario: the online detection service in front of a deployed model.
//
// A perception model certified against a commissioning-time OP goes
// live. Every production input is routed through the DetectionService:
// requests are coalesced into dynamic micro-batches (one forward pass +
// one density sweep per tick), each verdict reports the model's label
// plus whether the input looks operational (naturalness >= tau — the
// paper's deployment-side detection of off-profile / adversarial
// inputs). Mid-stream the environment drifts; the drift trigger re-fits
// the profile in the background and swaps it in without stalling
// serving, after which the new regime scores natural again.
#include <future>
#include <iostream>
#include <memory>
#include <vector>

#include "data/generators.h"
#include "detect/density_detector.h"
#include "naturalness/density_naturalness.h"
#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/trainer.h"
#include "op/class_conditional.h"
#include "op/gmm.h"
#include "serve/service.h"
#include "util/table.h"

using namespace opad;

namespace {

Classifier train_model(const Dataset& train, Rng& rng) {
  Sequential net(train.dim());
  net.emplace<Dense>(train.dim(), 24, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(24, train.num_classes(), rng);
  Classifier model(std::move(net), train.num_classes());
  TrainConfig config;
  config.epochs = 25;
  train_classifier(model, train.inputs(), train.labels(), config, rng);
  return model;
}

}  // namespace

int main() {
  Rng rng(11);

  // Commissioning: train the model and learn the OP it is certified for.
  const auto world = GaussianClustersGenerator::make_ring(3, 2.0, 0.25);
  const Dataset train = world.make_dataset(900, rng);
  Classifier model = train_model(train, rng);
  ClassConditionalConfig profile_config;
  profile_config.gmm.components = 2;
  const auto profile = std::make_shared<ClassConditionalProfile>(
      ClassConditionalProfile::fit(train, profile_config, rng));
  const DensityNaturalness metric(profile);
  const double tau = naturalness_threshold(metric, train.inputs(), 0.05);
  std::cout << "commissioned: tau = " << Table::num(tau, 3) << "\n";

  // Drift response: persistent alarms re-fit a GMM on the recent stream.
  auto partition = std::make_shared<const CellPartition>(
      CellPartition::fit(train.inputs(), 6, 2, rng));
  serve::DriftTriggerConfig trigger_config;
  trigger_config.monitor.window = 150;
  trigger_config.persistence = 25;
  trigger_config.refit_sample = 300;
  auto trigger = std::make_unique<serve::OnlineDriftTrigger>(
      partition, train.inputs(), trigger_config,
      [](const Tensor& recent, Rng& refit_rng) -> ProfilePtr {
        GmmConfig gmm;
        gmm.components = 3;
        return std::make_shared<GaussianMixtureModel>(
            GaussianMixtureModel::fit(recent, gmm, refit_rng));
      },
      rng);

  serve::ServiceConfig config;
  config.max_batch = 16;
  config.max_delay_us = 200;
  auto detector = std::make_shared<DensityDetector>(profile);
  detector->set_threshold(tau);
  serve::DetectionService service(model.clone(), std::move(detector), config,
                                  std::move(trigger));
  service.start();

  // Phase 1: in-distribution traffic — nearly everything is natural.
  auto run_phase = [&](const GaussianClustersGenerator& gen, std::size_t n,
                       Rng& stream) {
    std::vector<std::future<serve::DetectResult>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(service.submit(gen.sample(stream).x));
    }
    std::size_t natural = 0;
    for (auto& f : futures) {
      if (f.get().natural) ++natural;
    }
    return natural;
  };

  Rng stream(12);
  const std::size_t in_dist = run_phase(world, 400, stream);
  std::cout << "in-distribution phase: " << in_dist
            << "/400 natural, refits = " << service.stats().refits << "\n";

  // Phase 2: the environment shifts. Early verdicts flag the new inputs
  // as off-profile; the drift trigger re-fits in the background and swaps
  // the profile, after which the new regime is the baseline.
  const auto shifted = world.shifted({2.5, 2.5});
  const std::size_t early = run_phase(shifted, 400, stream);
  std::cout << "post-shift (old profile mostly): " << early
            << "/400 natural, refits = " << service.stats().refits << "\n";
  const std::size_t late = run_phase(shifted, 400, stream);
  std::cout << "post-swap: " << late
            << "/400 natural, refits = " << service.stats().refits << "\n";

  service.stop();
  const auto stats = service.stats();
  std::cout << "\nserved " << stats.served << " requests in "
            << stats.batches << " micro-batches (largest "
            << stats.max_batch_seen << "), " << stats.refits
            << " online profile swap(s).\n";
  std::cout << "tau after swap: " << Table::num(service.tau(), 3) << "\n";
  return 0;
}
