#include "detect/zoo.h"

#include <sstream>

#include "util/error.h"

namespace opad {

const std::vector<std::string>& detector_names() {
  static const std::vector<std::string> names = {
      "Density", "LID", "FeatureSqueeze", "MutationScore"};
  return names;
}

std::unique_ptr<Detector> make_detector(const std::string& name,
                                        const DetectorZooConfig& config,
                                        const Classifier& model,
                                        ProfilePtr profile) {
  if (name == "Density") {
    if (profile) return std::make_unique<DensityDetector>(std::move(profile));
    return std::make_unique<DensityDetector>(config.density);
  }
  if (name == "LID") {
    return std::make_unique<LidDetector>(model, config.lid);
  }
  if (name == "FeatureSqueeze") {
    return std::make_unique<SqueezeDetector>(model, config.squeeze);
  }
  if (name == "MutationScore") {
    return std::make_unique<MutationDetector>(model, config.mutation);
  }
  std::ostringstream os;
  os << "unknown detector '" << name << "'; expected one of {";
  for (std::size_t i = 0; i < detector_names().size(); ++i) {
    os << (i ? ", " : "") << detector_names()[i];
  }
  os << "}";
  throw PreconditionError(os.str());
}

std::vector<std::unique_ptr<Detector>> detector_zoo(
    const DetectorZooConfig& config, const Classifier& model,
    ProfilePtr profile) {
  std::vector<std::unique_ptr<Detector>> zoo;
  zoo.reserve(detector_names().size());
  for (const std::string& name : detector_names()) {
    zoo.push_back(make_detector(name, config, model, profile));
  }
  return zoo;
}

}  // namespace opad
