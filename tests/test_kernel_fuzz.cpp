// Randomized differential fuzz harness for the WCRT analysis kernel: the
// production lane driver (PreparedProblem::solve / solve_many, as reached
// through HolisticAnalysis) must produce bitwise-identical bounds,
// schedulability verdicts, and divergence flags to the reference full
// sweep (PreparedProblem::solve_reference_sweep) on every input.  Each
// iteration draws a random system (graph shapes, criticality mixes,
// utilization including overload, bus/no-bus, offset-aware vs
// jitter-fallback) and a random decoded candidate, then cross-checks the two
// at two levels:
//
//   - McAnalysis::analyze end-to-end (real transition scenarios, real
//     release cutoffs, real dedup, pooled or sequential chunking), and
//   - PreparedProblem::solve_many on 2-8 scenario-shaped bounds vectors at
//     once (the lane count is the length of the span), against a reference
//     sweep per vector.
//
// Every failure is SCOPED_TRACE-tagged with the iteration seed; rerun a
// single failing input with FTMC_FUZZ_SEED=<seed> FTMC_FUZZ_ITERS=1.
//
// Environment knobs: FTMC_FUZZ_ITERS (default 40 — the short deterministic
// tier-1 subset; CI's sanitizer job raises it to 300+), FTMC_FUZZ_SEED
// (default 2024, the base of the per-iteration seed sequence).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sched/prepared_problem.hpp"
#include "ftmc/util/hash.hpp"
#include "ftmc/util/rng.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using fixtures::CandidateFixture;
using fixtures::expect_same_mc_result;
using fixtures::expect_same_result;
using fixtures::make_candidate;
using fixtures::scenario_like_bounds;
using sched::PreparedProblem;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const long parsed = std::atol(raw);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  return static_cast<std::uint64_t>(std::atoll(raw));
}

/// A random mixed-critical system: random DAG shapes, criticality mix,
/// utilization (occasionally overloaded so the fixed point diverges),
/// channel sizes, and platform size.
benchmarks::Benchmark random_benchmark(util::Rng& rng) {
  benchmarks::SynthParams params;
  params.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  params.graph_count = 2 + rng.index(4);
  params.min_tasks = 2 + rng.index(3);
  params.max_tasks = params.min_tasks + 1 + rng.index(5);
  params.graph_utilization =
      rng.chance(0.15) ? rng.uniform_real(0.9, 1.6)  // overload -> divergence
                       : rng.uniform_real(0.08, 0.45);
  params.bcet_fraction = rng.uniform_real(0.2, 0.95);
  params.extra_edge_probability = rng.uniform_real(0.0, 0.4);
  params.droppable_fraction = rng.uniform_real(0.0, 1.0);
  // (bus-free systems come from Options::bus_contention = false below; the
  // generator requires a non-zero channel-size menu.)
  params.max_channel_bytes = 1 + rng.index(4096);
  return benchmarks::Benchmark{
      "fuzz",
      fixtures::test_arch(1 + rng.index(4), rng.chance(0.5) ? 1.0 : 0.25),
      benchmarks::synthetic_applications(params)};
}

void run_mc_level(const benchmarks::Benchmark& benchmark,
                  const CandidateFixture& fx,
                  const sched::HolisticAnalysis::Options& regime,
                  util::ThreadPool* pool) {
  // The reference arm: every solve rebuilds the problem and sweeps.
  const fixtures::RebuildBackend sweep_backend(regime, /*sweep=*/true);
  const sched::HolisticAnalysis production_backend(regime);
  const core::McAnalysis sweep(sweep_backend);
  const core::McAnalysis production(production_backend);
  for (const auto mode : {core::McAnalysis::Mode::kProposed,
                          core::McAnalysis::Mode::kNaive}) {
    SCOPED_TRACE(mode == core::McAnalysis::Mode::kProposed ? "proposed"
                                                           : "naive");
    const auto reference =
        sweep.analyze(benchmark.arch, fx.system, fx.candidate.drop, mode);
    const auto result = production.analyze(benchmark.arch, fx.system,
                                           fx.candidate.drop, mode, pool);
    expect_same_mc_result(reference, result);
    // The solve count is a pure function of the inputs, not of how the
    // kernel batches them.
    EXPECT_EQ(reference.scenario_solves, result.scenario_solves);
  }
}

void run_prepared_level(const benchmarks::Benchmark& benchmark,
                        const CandidateFixture& fx,
                        const sched::HolisticAnalysis::Options& regime,
                        util::Rng& rng) {
  const PreparedProblem prepared(benchmark.arch, fx.system.apps,
                                 fx.system.mapping, fx.priorities, regime);
  const auto scenarios =
      scenario_like_bounds(fx.system, 2 + rng.index(7), rng);
  std::vector<sched::AnalysisResult> batched(scenarios.size());
  prepared.solve_many(scenarios, batched);
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    SCOPED_TRACE("lane " + std::to_string(k) + " of " +
                 std::to_string(scenarios.size()));
    const sched::AnalysisResult reference =
        prepared.solve_reference_sweep(scenarios[k]);
    expect_same_result(reference, batched[k]);
    expect_same_result(reference, prepared.solve(scenarios[k]));
  }
}

TEST(KernelFuzz, SweepAndLaneDriverBitwiseIdentical) {
  const std::size_t iters = env_size("FTMC_FUZZ_ITERS", 40);
  const std::uint64_t base_seed = env_u64("FTMC_FUZZ_SEED", 2024);
  util::ThreadPool pool(4);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = base_seed + iter;
    SCOPED_TRACE("iteration " + std::to_string(iter) + ", seed " +
                 std::to_string(seed) + " (rerun just this input with " +
                 "FTMC_FUZZ_SEED=" + std::to_string(seed) +
                 " FTMC_FUZZ_ITERS=1)");
    util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    const benchmarks::Benchmark benchmark = random_benchmark(rng);
    const CandidateFixture fx = make_candidate(benchmark, rng);

    sched::HolisticAnalysis::Options regime;
    regime.bus_contention = rng.chance(0.5);
    regime.precedence_aware = rng.chance(0.8);

    run_mc_level(benchmark, fx, regime, rng.chance(0.5) ? &pool : nullptr);
    run_prepared_level(benchmark, fx, regime, rng);
    if (::testing::Test::HasFailure()) break;  // one seed is enough to debug
  }

#if !defined(FTMC_OBS_DISABLED)
  // Coverage guard: the random inputs must actually have driven the paths
  // under test, or the bitwise assertions above prove nothing.
  const obs::MetricsSnapshot snapshot = obs::snapshot();
  EXPECT_GT(snapshot.value_of("sched.sweep.node_evals"), 0u);
  EXPECT_GT(snapshot.value_of("sched.batch.solves"), 0u);
  EXPECT_GT(snapshot.value_of("sched.batch.lanes"),
            snapshot.value_of("sched.batch.solves"));
  EXPECT_GT(snapshot.value_of("sched.batch.shared_evals"), 0u);
  EXPECT_GT(snapshot.value_of("sched.batch.dup_lanes"), 0u);
#endif
}

/// Calls `visit` with every McAnalysis result the cross-commit goldens pin:
/// the generator's first 40 seeds (fixed base 2024, independent of
/// FTMC_FUZZ_SEED), bus contention off and on, both modes.
template <typename Visit>
void for_each_golden_result(Visit visit) {
  for (std::uint64_t seed = 2024; seed < 2024 + 40; ++seed) {
    util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    const benchmarks::Benchmark benchmark = random_benchmark(rng);
    const CandidateFixture fx = make_candidate(benchmark, rng);
    for (const bool bus : {false, true}) {
      sched::HolisticAnalysis::Options options;
      options.bus_contention = bus;
      const sched::HolisticAnalysis backend(options);
      const core::McAnalysis analysis(backend);
      for (const auto mode : {core::McAnalysis::Mode::kProposed,
                              core::McAnalysis::Mode::kNaive})
        visit(analysis.analyze(benchmark.arch, fx.system, fx.candidate.drop,
                               mode));
    }
  }
}

// Cross-commit golden digest: every other kernel test here is a within-build
// differential, so none of them would notice the production path's output
// drifting between commits.  This pins an FNV-1a digest of McAnalysis WCRT
// vectors, normal-state windows and verdicts.  The digest is over host-order
// bytes, so it is only meaningful on a little-endian 64-bit ABI.
TEST(KernelFuzz, McAnalysisGoldenDigest) {
  util::Fnv1aHasher hasher;
  for_each_golden_result([&](const core::McAnalysisResult& result) {
    hasher.feed_range(std::span<const model::Time>(result.wcrt));
    for (const sched::TaskWindow& window : result.normal.windows) {
      hasher.feed(window.min_start);
      hasher.feed(window.min_finish);
      hasher.feed(window.max_start);
      hasher.feed(window.max_finish);
      hasher.feed(window.schedulable);
    }
    hasher.feed(result.normal.schedulable);
    hasher.feed(result.normal_schedulable);
    hasher.feed(result.critical_schedulable);
    hasher.feed(static_cast<std::uint64_t>(result.scenario_count));
  });
  EXPECT_EQ(hasher.digest(), 0x76b21769b2737936ULL);
}

// Cross-commit pin on scenario dedup: the digest above covers scenario_count
// but not how many unique scenarios reach the solver, so a construction
// change that dedups more or less would go unnoticed.
TEST(KernelFuzz, McAnalysisSolveCountGolden) {
  util::Fnv1aHasher hasher;
  for_each_golden_result([&](const core::McAnalysisResult& result) {
    hasher.feed(static_cast<std::uint64_t>(result.scenario_count));
    hasher.feed(static_cast<std::uint64_t>(result.scenario_solves));
  });
  EXPECT_EQ(hasher.digest(), 0xb8f74baf9da8368eULL);
}

}  // namespace
