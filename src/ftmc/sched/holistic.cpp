#include "ftmc/sched/holistic.hpp"

#include <stdexcept>

#include "ftmc/sched/prepared_problem.hpp"

namespace ftmc::sched {

AnalysisResult HolisticAnalysis::analyze(
    const model::Architecture& arch, const model::ApplicationSet& apps,
    const model::Mapping& mapping, std::span<const ExecBounds> bounds,
    std::span<const std::uint32_t> priorities) const {
  if (bounds.size() != apps.task_count())
    throw std::invalid_argument("HolisticAnalysis: bounds size mismatch");
  // One-shot entry: prepare and solve in place.  Multi-scenario callers use
  // prepare() once and amortize the problem build (see prepared_problem.hpp).
  return PreparedProblem(arch, apps, mapping, priorities, options_)
      .solve(bounds);
}

std::unique_ptr<PreparedAnalysis> HolisticAnalysis::prepare(
    const model::Architecture& arch, const model::ApplicationSet& apps,
    const model::Mapping& mapping,
    std::span<const std::uint32_t> priorities) const {
  return std::make_unique<PreparedProblem>(arch, apps, mapping, priorities,
                                           options_);
}

}  // namespace ftmc::sched
