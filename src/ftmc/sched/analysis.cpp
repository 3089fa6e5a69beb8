#include "ftmc/sched/analysis.hpp"

#include <algorithm>
#include <stdexcept>

namespace ftmc::sched {

void PreparedAnalysis::solve_many(
    std::span<const std::span<const ExecBounds>> scenarios,
    std::span<AnalysisResult> results) const {
  if (scenarios.size() != results.size())
    throw std::invalid_argument("solve_many: scenario/result size mismatch");
  for (std::size_t k = 0; k < scenarios.size(); ++k)
    results[k] = solve(scenarios[k]);
}

void PreparedAnalysis::solve_many(
    std::span<const std::vector<ExecBounds>> scenarios,
    std::span<AnalysisResult> results) const {
  std::vector<std::span<const ExecBounds>> views(scenarios.begin(),
                                                 scenarios.end());
  solve_many(std::span<const std::span<const ExecBounds>>(views), results);
}

model::Time AnalysisResult::graph_wcrt(const model::ApplicationSet& apps,
                                       model::GraphId graph) const {
  const model::TaskGraph& g = apps.graph(graph);
  model::Time wcrt = 0;
  for (std::uint32_t sink : g.sinks()) {
    wcrt = std::max(wcrt,
                    windows.at(apps.flat_index({graph.value, sink})).max_finish);
  }
  return wcrt;
}

bool AnalysisResult::meets_deadlines(const model::ApplicationSet& apps) const {
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::GraphId id{g};
    if (graph_wcrt(apps, id) > apps.graph(id).deadline()) return false;
  }
  return true;
}

namespace {

/// Fallback PreparedAnalysis: no shared state, every solve() rebuilds the
/// whole problem through the plain analyze() entry.  Thread safety follows
/// from analyze() being const and stateless.
///
/// Differential-test-only reference (like sim::reference::run): no in-tree
/// production caller goes through this path — they all use prepare() on a
/// backend with a real prepared problem.  It stays as the adapter that lets
/// any third-party SchedulingAnalysis participate unchanged, and as the
/// baseline tests/test_prepared_problem.cpp compares the prepared kernel
/// against (through a forwarding backend that does not override prepare()).
class RebuildPerSolve final : public PreparedAnalysis {
 public:
  RebuildPerSolve(const SchedulingAnalysis& backend,
                  const model::Architecture& arch,
                  const model::ApplicationSet& apps,
                  const model::Mapping& mapping,
                  std::span<const std::uint32_t> priorities)
      : backend_(&backend),
        arch_(&arch),
        apps_(&apps),
        mapping_(&mapping),
        priorities_(priorities) {}

  AnalysisResult solve(std::span<const ExecBounds> bounds) const override {
    return backend_->analyze(*arch_, *apps_, *mapping_, bounds, priorities_);
  }

 private:
  const SchedulingAnalysis* backend_;
  const model::Architecture* arch_;
  const model::ApplicationSet* apps_;
  const model::Mapping* mapping_;
  std::span<const std::uint32_t> priorities_;
};

}  // namespace

std::unique_ptr<PreparedAnalysis> SchedulingAnalysis::prepare(
    const model::Architecture& arch, const model::ApplicationSet& apps,
    const model::Mapping& mapping,
    std::span<const std::uint32_t> priorities) const {
  return std::make_unique<RebuildPerSolve>(*this, arch, apps, mapping,
                                           priorities);
}

}  // namespace ftmc::sched
