#include "ftmc/model/architecture.hpp"

#include <cmath>
#include <unordered_set>

namespace ftmc::model {

Architecture::Architecture(std::vector<Processor> processors,
                           double bandwidth_bytes_per_us)
    : processors_(std::move(processors)), bandwidth_(bandwidth_bytes_per_us) {
  if (processors_.empty())
    throw std::invalid_argument("Architecture: no processors");
  if (!(bandwidth_ > 0.0) || !std::isfinite(bandwidth_))
    throw std::invalid_argument(
        "Architecture: bandwidth must be positive and finite");
  std::unordered_set<std::string> names;
  for (const auto& processor : processors_) {
    if (processor.name.empty())
      throw std::invalid_argument("Architecture: processor without a name");
    if (!names.insert(processor.name).second)
      throw std::invalid_argument("Architecture: duplicate processor name '" +
                                  processor.name + "'");
    if (!(processor.static_power >= 0.0 && processor.dynamic_power >= 0.0 &&
          std::isfinite(processor.static_power) &&
          std::isfinite(processor.dynamic_power)))
      throw std::invalid_argument(
          "Architecture: power must be non-negative and finite for '" +
          processor.name + "'");
    if (!(processor.fault_rate >= 0.0 && std::isfinite(processor.fault_rate)))
      throw std::invalid_argument(
          "Architecture: fault rate must be non-negative and finite for '" +
          processor.name + "'");
    if (!(processor.speed_factor > 0.0 &&
          std::isfinite(processor.speed_factor)))
      throw std::invalid_argument(
          "Architecture: speed factor must be positive and finite for '" +
          processor.name + "'");
  }
}

Time Architecture::transfer_time(std::uint64_t bytes) const {
  if (bytes == 0) return 0;
  const double latency = std::ceil(static_cast<double>(bytes) / bandwidth_);
  if (!fits_in_time(latency))
    throw std::overflow_error("Architecture::transfer_time: " +
                              std::to_string(bytes) + " bytes at bandwidth " +
                              std::to_string(bandwidth_) +
                              " overflow model::Time");
  return static_cast<Time>(latency);
}

ArchitectureBuilder& ArchitectureBuilder::add_processor(Processor processor) {
  processors_.push_back(std::move(processor));
  return *this;
}

ArchitectureBuilder& ArchitectureBuilder::add_processors(
    const Processor& prototype, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    Processor copy = prototype;
    copy.name.append("_").append(std::to_string(i));
    processors_.push_back(std::move(copy));
  }
  return *this;
}

ArchitectureBuilder& ArchitectureBuilder::bandwidth(double bytes_per_us) {
  bandwidth_ = bytes_per_us;
  return *this;
}

Architecture ArchitectureBuilder::build() const {
  return Architecture(processors_, bandwidth_);
}

}  // namespace ftmc::model
