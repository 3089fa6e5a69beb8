#include "ftmc/dse/ga.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "ftmc/sched/holistic.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using dse::GaOptions;
using dse::GaResult;
using dse::GeneticOptimizer;

GaOptions tiny_options() {
  GaOptions options;
  options.population = 16;
  options.offspring = 16;
  options.generations = 6;
  options.seed = 123;
  options.threads = 2;
  return options;
}

struct GaRig {
  model::Architecture arch = fixtures::test_arch(2);
  model::ApplicationSet apps = fixtures::small_mixed_apps();
  sched::HolisticAnalysis backend;
  GeneticOptimizer optimizer{arch, apps, backend};
};

TEST(Ga, FindsFeasibleSolutionsOnEasyInstance) {
  GaRig rig;
  const GaResult result = rig.optimizer.run(tiny_options());
  EXPECT_FALSE(result.archive.empty());
  EXPECT_FALSE(result.pareto.empty());
  EXPECT_FALSE(std::isnan(result.best_feasible_power));
  EXPECT_GT(result.evaluations, 0u);
  for (const auto& individual : result.pareto)
    EXPECT_TRUE(individual.evaluation.feasible());
}

TEST(Ga, DeterministicForFixedSeed) {
  GaRig rig;
  const GaResult a = rig.optimizer.run(tiny_options());
  const GaResult b = rig.optimizer.run(tiny_options());
  EXPECT_EQ(a.best_feasible_power, b.best_feasible_power);
  ASSERT_EQ(a.archive.size(), b.archive.size());
  for (std::size_t i = 0; i < a.archive.size(); ++i)
    EXPECT_EQ(a.archive[i].objectives, b.archive[i].objectives);
}

TEST(Ga, HistoryTracksGenerations) {
  GaRig rig;
  auto options = tiny_options();
  std::atomic<std::size_t> callbacks{0};
  options.on_generation = [&](const dse::GenerationStats&) { ++callbacks; };
  const GaResult result = rig.optimizer.run(options);
  EXPECT_EQ(result.history.size(), options.generations + 1);
  EXPECT_EQ(callbacks.load(), options.generations + 1);
  // Best feasible power is monotone non-increasing once found.
  double best = std::numeric_limits<double>::infinity();
  for (const auto& stats : result.history) {
    if (std::isnan(stats.best_feasible_power)) continue;
    EXPECT_LE(stats.best_feasible_power, best + 1e-9);
    best = std::min(best, stats.best_feasible_power);
  }
}

TEST(Ga, ObserverSeesEveryEvaluation) {
  GaRig rig;
  std::atomic<std::size_t> seen{0};
  rig.optimizer.set_observer(
      [&](const core::Candidate&, const core::Evaluation&) { ++seen; });
  const auto options = tiny_options();
  const GaResult result = rig.optimizer.run(options);
  EXPECT_EQ(seen.load(), result.evaluations);
  EXPECT_EQ(result.evaluations,
            options.population + options.generations * options.offspring);
}

TEST(Ga, NoDroppingModeNeverDrops) {
  GaRig rig;
  auto options = tiny_options();
  options.decoder.allow_dropping = false;
  options.evaluator.allow_dropping = false;
  std::atomic<std::size_t> drops{0};
  rig.optimizer.set_observer(
      [&](const core::Candidate& candidate, const core::Evaluation&) {
        for (bool dropped : candidate.drop)
          if (dropped) ++drops;
      });
  (void)rig.optimizer.run(options);
  EXPECT_EQ(drops.load(), 0u);
}

TEST(Ga, SingleObjectiveModeHasScalarObjectives) {
  GaRig rig;
  auto options = tiny_options();
  options.optimize_service = false;
  const GaResult result = rig.optimizer.run(options);
  for (const auto& individual : result.archive)
    EXPECT_EQ(individual.objectives.size(), 1u);
}

TEST(Ga, BiObjectiveParetoIsMutuallyNonDominated) {
  GaRig rig;
  const GaResult result = rig.optimizer.run(tiny_options());
  for (const auto& a : result.pareto)
    for (const auto& b : result.pareto)
      if (&a != &b) {
        EXPECT_FALSE(dse::dominates(a.objectives, b.objectives));
      }
}

TEST(Ga, RejectsEmptyPopulation) {
  GaRig rig;
  auto options = tiny_options();
  options.population = 0;
  EXPECT_THROW(rig.optimizer.run(options), std::invalid_argument);
}

TEST(Ga, ArchiveRespectsPopulationBound) {
  GaRig rig;
  const auto options = tiny_options();
  const GaResult result = rig.optimizer.run(options);
  EXPECT_LE(result.archive.size(), options.population);
}

// Memoization must never steer the search: for a fixed seed, the run with
// the evaluation cache enabled and the run with it disabled must walk the
// exact same trajectory — identical archive objectives, identical
// chromosomes, identical best power (ISSUE 1 differential guarantee).
void expect_same_trajectory(const GaResult& a, const GaResult& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  if (std::isnan(a.best_feasible_power)) {
    EXPECT_TRUE(std::isnan(b.best_feasible_power));
  } else {
    EXPECT_EQ(a.best_feasible_power, b.best_feasible_power);
  }
  ASSERT_EQ(a.archive.size(), b.archive.size());
  for (std::size_t i = 0; i < a.archive.size(); ++i) {
    EXPECT_EQ(a.archive[i].objectives, b.archive[i].objectives);
    EXPECT_EQ(a.archive[i].chromosome, b.archive[i].chromosome);
    EXPECT_EQ(a.archive[i].candidate, b.archive[i].candidate);
  }
}

TEST(Ga, OneAndFourThreadsTrajectoriesIdentical) {
  // Candidates and their Algorithm-1 scenarios fan out over the GA's pool;
  // the thread count may change only the wall time.
  GaRig rig;
  auto one = tiny_options();
  one.threads = 1;
  auto four = tiny_options();
  four.threads = 4;
  expect_same_trajectory(rig.optimizer.run(one), rig.optimizer.run(four));
}

TEST(Ga, CacheStatisticsAreReportedAndConsistent) {
  GaRig rig;
  const GaResult result = rig.optimizer.run(tiny_options());

  std::size_t evaluations = 0, hits = 0, misses = 0;
  for (const auto& stats : result.history) {
    evaluations += stats.evaluations;
    hits += stats.cache_hits;
    misses += stats.cache_misses;
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.evaluations);
    EXPECT_GE(stats.cache_hit_rate, 0.0);
    EXPECT_LE(stats.cache_hit_rate, 1.0);
    EXPECT_GE(stats.evaluation_seconds, 0.0);
  }
  EXPECT_EQ(evaluations, result.evaluations);
  EXPECT_EQ(hits + misses, result.evaluations);
  // The tiny instance converges quickly, so repeats must occur.
  EXPECT_GT(hits, 0u);
  // The candidate cache is the only layer that answers repeats, so its own
  // counters are the per-generation totals.
  EXPECT_EQ(result.cache.hits, hits);
  EXPECT_EQ(result.cache.lookups(), result.evaluations);
}

TEST(Ga, EvictingCacheKeepsTheTrajectory) {
  // One entry per shard: the run-local cache evicts constantly, which may
  // only cost hits, never change what the search sees.
  GaRig rig;
  auto tiny_cache = tiny_options();
  tiny_cache.cache_capacity = 1;
  const GaResult evicting = rig.optimizer.run(tiny_cache);
  const GaResult roomy = rig.optimizer.run(tiny_options());
  EXPECT_GT(evicting.cache.evictions, 0u);
  EXPECT_EQ(roomy.cache.evictions, 0u);
  expect_same_trajectory(evicting, roomy);
}

TEST(Ga, ExternalCacheIsSharedAcrossRuns) {
  GaRig rig;
  core::EvaluationCache shared;
  auto options = tiny_options();
  options.evaluator.cache = &shared;
  const GaResult first = rig.optimizer.run(options);
  const std::size_t entries_after_first = shared.stats().entries;
  EXPECT_GT(entries_after_first, 0u);

  // Identical rerun: every candidate evaluation is answered by the shared
  // cache, and the trajectory is unchanged.
  const core::CacheStats before = shared.stats();
  const GaResult second = rig.optimizer.run(options);
  expect_same_trajectory(first, second);
  const core::CacheStats after = shared.stats();
  EXPECT_EQ(after.misses, before.misses);  // no new analysis ran
  EXPECT_GT(after.hits, before.hits);
}

}  // namespace
