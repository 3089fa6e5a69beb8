// Shared fixtures for the test suite: small platforms, application sets,
// decoded random candidates, and bitwise result comparators for the
// differential kernel tests.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/core/exec_model.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/hardening/hardening.hpp"
#include "ftmc/model/application_set.hpp"
#include "ftmc/model/architecture.hpp"
#include "ftmc/model/task_graph.hpp"
#include "ftmc/sched/prepared_problem.hpp"
#include "ftmc/sched/priority.hpp"
#include "ftmc/util/rng.hpp"

namespace ftmc::fixtures {

inline model::Processor test_pe(const std::string& name,
                                double fault_rate = 1.0e-8,
                                double speed = 1.0) {
  return model::Processor{name, 0, 10.0, 40.0, fault_rate, speed};
}

/// `count` identical PEs, bandwidth 1 byte/us.
inline model::Architecture test_arch(std::size_t count,
                                     double bandwidth = 1.0) {
  model::ArchitectureBuilder builder;
  for (std::size_t i = 0; i < count; ++i)
    builder.add_processor(test_pe("pe" + std::to_string(i)));
  builder.bandwidth(bandwidth);
  return builder.build();
}

/// Chain graph: t0 -> t1 -> ... with identical tasks.
inline model::TaskGraph chain_graph(const std::string& name,
                                    std::size_t tasks, model::Time bcet,
                                    model::Time wcet, model::Time period,
                                    bool droppable, double sv_or_f,
                                    std::uint64_t channel_bytes = 0,
                                    model::Time ve = 3, model::Time dt = 2) {
  model::TaskGraphBuilder builder(name);
  std::uint32_t previous = 0;
  for (std::size_t i = 0; i < tasks; ++i) {
    const auto id = builder.add_task(name + std::to_string(i), bcet, wcet,
                                     ve, dt);
    if (i > 0) builder.connect(previous, id, channel_bytes);
    previous = id;
  }
  builder.period(period);
  if (droppable)
    builder.droppable(sv_or_f);
  else
    builder.reliability(sv_or_f);
  return builder.build();
}

/// One critical 2-task chain + one droppable 2-task chain, same period.
inline model::ApplicationSet small_mixed_apps(model::Time period = 1000) {
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(chain_graph("crit", 2, 50, 100, period, false, 1e-6));
  graphs.push_back(chain_graph("drop", 2, 30, 60, period, true, 2.0));
  return model::ApplicationSet(std::move(graphs));
}

/// Identity candidate: everything on PE 0..n round-robin, no hardening,
/// nothing dropped.
inline core::Candidate plain_candidate(const model::Architecture& arch,
                                       const model::ApplicationSet& apps) {
  core::Candidate candidate;
  candidate.allocation.assign(arch.processor_count(), true);
  candidate.drop.assign(apps.graph_count(), false);
  candidate.plan.resize(apps.task_count());
  candidate.base_mapping.resize(apps.task_count());
  for (std::size_t i = 0; i < apps.task_count(); ++i)
    candidate.base_mapping[i] = model::ProcessorId{
        static_cast<std::uint32_t>(i % arch.processor_count())};
  return candidate;
}

/// A candidate decoded from a random chromosome plus its hardened system
/// (the unit the differential kernel tests iterate over).
struct CandidateFixture {
  core::Candidate candidate;
  hardening::HardenedSystem system;
  std::vector<std::uint32_t> priorities;
};

inline CandidateFixture make_candidate(const benchmarks::Benchmark& benchmark,
                                       util::Rng& rng) {
  const dse::Decoder decoder(benchmark.arch, benchmark.apps);
  dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
  core::Candidate candidate = decoder.decode(chromosome, rng);
  auto system = hardening::apply_hardening(benchmark.apps, candidate.plan,
                                           candidate.base_mapping,
                                           benchmark.arch.processor_count());
  auto priorities = sched::assign_priorities(system.apps);
  return {std::move(candidate), std::move(system), std::move(priorities)};
}

/// Scenario-shaped bounds vectors: the nominal vector plus seeded mutations
/// exercising every classification Algorithm 1 produces — certainly-dropped
/// [0,0], maybe-dropped [0, wcet] with a release cutoff, inflated critical
/// bounds, and untouched nominal tasks.
inline std::vector<std::vector<sched::ExecBounds>> scenario_like_bounds(
    const hardening::HardenedSystem& system, std::size_t count,
    util::Rng& rng) {
  const std::vector<sched::ExecBounds> nominal =
      core::nominal_bounds_of(system);
  std::vector<std::vector<sched::ExecBounds>> sets;
  sets.push_back(nominal);
  const model::Time hyperperiod = system.apps.hyperperiod();
  while (sets.size() < count) {
    std::vector<sched::ExecBounds> bounds = nominal;
    for (sched::ExecBounds& b : bounds) {
      switch (rng.index(5)) {
        case 0:
          b = {0, 0};
          break;
        case 1:
          b = {0, b.wcet, rng.uniform_int(0, hyperperiod)};
          break;
        case 2:
          b = {b.bcet, b.wcet * 2 + 5};
          break;
        default:
          break;  // keep nominal
      }
    }
    sets.push_back(std::move(bounds));
  }
  return sets;
}

/// The holistic backend without its prepared kernel: it does not override
/// prepare(), so McAnalysis reaches it through the rebuild-per-solve adapter
/// and every solve rebuilds the whole problem.  With `sweep`, each solve runs
/// the reference full sweep instead of the production lane driver.
class RebuildBackend final : public sched::SchedulingAnalysis {
 public:
  explicit RebuildBackend(sched::HolisticAnalysis::Options options = {},
                          bool sweep = false)
      : options_(options), sweep_(sweep) {}

  sched::AnalysisResult analyze(
      const model::Architecture& arch, const model::ApplicationSet& apps,
      const model::Mapping& mapping, std::span<const sched::ExecBounds> bounds,
      std::span<const std::uint32_t> priorities) const override {
    const sched::PreparedProblem problem(arch, apps, mapping, priorities,
                                        options_);
    return sweep_ ? problem.solve_reference_sweep(bounds)
                  : problem.solve(bounds);
  }

 private:
  sched::HolisticAnalysis::Options options_;
  bool sweep_;
};

/// Bitwise equality of two backend results (windows, verdicts).
inline void expect_same_result(const sched::AnalysisResult& a,
                               const sched::AnalysisResult& b) {
  EXPECT_EQ(a.schedulable, b.schedulable);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].min_start, b.windows[i].min_start);
    EXPECT_EQ(a.windows[i].min_finish, b.windows[i].min_finish);
    EXPECT_EQ(a.windows[i].max_start, b.windows[i].max_start);
    EXPECT_EQ(a.windows[i].max_finish, b.windows[i].max_finish);
    EXPECT_EQ(a.windows[i].schedulable, b.windows[i].schedulable);
  }
}

/// Bitwise equality of two Algorithm-1 results.
inline void expect_same_mc_result(const core::McAnalysisResult& a,
                                  const core::McAnalysisResult& b) {
  EXPECT_EQ(a.wcrt, b.wcrt);
  EXPECT_EQ(a.normal_schedulable, b.normal_schedulable);
  EXPECT_EQ(a.critical_schedulable, b.critical_schedulable);
  EXPECT_EQ(a.scenario_count, b.scenario_count);
  expect_same_result(a.normal, b.normal);
}

}  // namespace ftmc::fixtures
