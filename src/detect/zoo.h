// String-keyed detector factory (mirror of make_attack / make_method):
// benches and examples name detectors instead of hand-assembling them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "detect/density_detector.h"
#include "detect/detector.h"
#include "detect/lid_detector.h"
#include "detect/mutation_detector.h"
#include "detect/squeeze_detector.h"

namespace opad {

struct DetectorZooConfig {
  /// fit() settings of a from-scratch DensityDetector; ignored when a
  /// pre-fitted profile is supplied to make_detector.
  ClassConditionalConfig density;
  LidConfig lid;
  SqueezeConfig squeeze;
  MutationConfig mutation;
};

/// Names accepted by make_detector, in zoo order:
/// {"Density", "LID", "FeatureSqueeze", "MutationScore"}.
const std::vector<std::string>& detector_names();

/// Builds one detector by name (unfitted unless `profile` is non-null
/// and the name is "Density"). Throws PreconditionError on an unknown
/// name, listing the valid ones.
std::unique_ptr<Detector> make_detector(const std::string& name,
                                        const DetectorZooConfig& config,
                                        const Classifier& model,
                                        ProfilePtr profile = nullptr);

/// The full battery, one of each in detector_names() order.
std::vector<std::unique_ptr<Detector>> detector_zoo(
    const DetectorZooConfig& config, const Classifier& model,
    ProfilePtr profile = nullptr);

}  // namespace opad
