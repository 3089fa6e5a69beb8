// Measurement of the evaluation memoization layers in the DSE hot path:
//
//   cold cache      run-local EvaluationCache shared by all GA workers +
//                   per-scenario parallelism on the same pool; the cache
//                   starts empty, so misses pay full price;
//   warm cache      the same run against an externally owned, already
//                   populated cache — the re-exploration regime the layer
//                   targets (hyperparameter iteration, objective toggles,
//                   repeated runs on an unchanged model), where nearly every
//                   evaluation is a hit (`warm_speedup` is cold over warm);
//   cold store      persistent EvalStore (`--cache-dir`) starting empty:
//                   every evaluation computes and appends to disk — the
//                   first campaign on a new model pays this;
//   warm store      the store reopened fully populated, as a fresh process
//                   (or a later campaign shard) finds it: evaluations
//                   replay from the mmap'd log (ISSUE 7 targets >= 5x over
//                   cold store here).
//
// All runs use identical GA settings and seeds; the search trajectories are
// identical by construction (tests/test_evaluation_cache.cpp and
// tests/test_ga.cpp enforce observational equivalence), so the wall-clock
// ratios are pure analysis-stack speedups.  Each arm reports the median of
// FTMC_REPS repetitions to tame scheduler noise.
//
// Environment knobs: FTMC_GENERATIONS (default 50), FTMC_POPULATION (40),
// FTMC_SEED (2014), FTMC_THREADS (hardware), FTMC_REPS (3).
//
// The last line is a one-line JSON summary for CI and scripted regression
// tracking; the exit code is non-zero if any arm's best power diverges.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/eval_store.hpp"
#include "ftmc/core/evaluation_cache.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/table.hpp"

using namespace ftmc;

namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const long parsed = std::atol(raw);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

struct RunOutcome {
  double seconds = 0.0;
  double best_power = 0.0;
  double hit_rate = 0.0;
  double scenarios_per_second = 0.0;
};

RunOutcome run_once(const benchmarks::Benchmark& benchmark,
                    const dse::GaOptions& options) {
  const sched::HolisticAnalysis backend;
  const dse::GeneticOptimizer optimizer(benchmark.arch, benchmark.apps,
                                        backend);
  const auto start = std::chrono::steady_clock::now();
  const dse::GaResult result = optimizer.run(options);
  RunOutcome outcome;
  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  outcome.best_power = result.best_feasible_power;
  std::size_t evaluations = 0, hits = 0, scenarios = 0;
  double eval_seconds = 0.0;
  for (const dse::GenerationStats& stats : result.history) {
    evaluations += stats.evaluations;
    hits += stats.cache_hits;
    scenarios += stats.scenarios_analyzed;
    eval_seconds += stats.evaluation_seconds;
  }
  outcome.hit_rate = evaluations > 0
                         ? static_cast<double>(hits) / evaluations
                         : 0.0;
  outcome.scenarios_per_second =
      eval_seconds > 0.0 ? static_cast<double>(scenarios) / eval_seconds
                         : 0.0;
  return outcome;
}

/// Median-of-N wall clock; the other fields are taken from the median run.
RunOutcome median_of(std::vector<RunOutcome> outcomes) {
  std::sort(outcomes.begin(), outcomes.end(),
            [](const RunOutcome& a, const RunOutcome& b) {
              return a.seconds < b.seconds;
            });
  return outcomes[outcomes.size() / 2];
}

RunOutcome run_median(const benchmarks::Benchmark& benchmark,
                      const dse::GaOptions& options, std::size_t reps) {
  std::vector<RunOutcome> outcomes;
  for (std::size_t r = 0; r < reps; ++r)
    outcomes.push_back(run_once(benchmark, options));
  return median_of(std::move(outcomes));
}

bool same_power(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Reporter reporter(argc, argv);
  const std::size_t generations = env_or("FTMC_GENERATIONS", 50);
  const std::size_t population = env_or("FTMC_POPULATION", 40);
  const std::uint64_t seed = env_or("FTMC_SEED", 2014);
  const std::size_t threads = env_or("FTMC_THREADS", 0);
  const std::size_t reps = env_or("FTMC_REPS", 3);

  std::cout << "DSE evaluation cache: " << generations
            << " generations, population " << population << ", seed " << seed
            << ", median of " << reps
            << " (FTMC_GENERATIONS / FTMC_POPULATION / FTMC_SEED / "
               "FTMC_THREADS / FTMC_REPS)\n";

  util::Table table(std::to_string(generations) +
                    "-generation synth DSE: cold vs warm cache and store");
  table.set_header({"benchmark", "cold [s]", "cold hits", "warm [s]",
                    "warm speedup", "scenarios/s",
                    "store cold [s]", "store warm [s]", "store speedup",
                    "best power equal"});

  obs::Json json_benchmarks = obs::Json::array();
  bool all_equal = true;
  for (int index : {1, 2}) {
    const benchmarks::Benchmark benchmark =
        benchmarks::synth_benchmark(index);

    dse::GaOptions options;
    options.population = population;
    options.offspring = population;
    options.generations = generations;
    options.seed = seed;
    options.threads = threads;

    const RunOutcome cold = run_median(benchmark, options, reps);

    // Warm regime: an externally owned cache survives across runs; warm it
    // once, then measure.  (The candidate-keyed cache is the GA's only
    // evaluation memo, so every warm hit is one of its lookups.)
    core::EvaluationCache shared_cache;
    dse::GaOptions warm_path = options;
    warm_path.evaluator.cache = &shared_cache;
    run_once(benchmark, warm_path);
    const RunOutcome warm = run_median(benchmark, warm_path, reps);

    // Persistent-store regime (ISSUE 7): the same campaign against the
    // disk-backed L2 alone.  Cold-store reps wipe the store first (every
    // evaluation computes and appends); warm-store reps reopen the store a
    // fresh process would find fully populated, so evaluations replay from
    // the mmap'd log instead of rerunning Algorithm 1.  The run-local L1
    // dies with each run, so warm-store hits all flow through the store.
    const std::string store_dir =
        "/tmp/ftmc_bench_dse_store_" + std::to_string(index);
    const auto run_with_store = [&](bool wipe) {
      if (wipe) {
        std::remove((store_dir + "/evals.log").c_str());
        std::remove((store_dir + "/evals.idx").c_str());
      }
      core::EvalStore store(store_dir);
      dse::GaOptions store_path = options;
      store_path.evaluator.store = &store;
      return run_once(benchmark, store_path);
    };
    std::vector<RunOutcome> cold_store_runs, warm_store_runs;
    for (std::size_t r = 0; r < reps; ++r)
      cold_store_runs.push_back(run_with_store(/*wipe=*/true));
    for (std::size_t r = 0; r < reps; ++r)
      warm_store_runs.push_back(run_with_store(/*wipe=*/false));
    const RunOutcome cold_store = median_of(std::move(cold_store_runs));
    const RunOutcome warm_store = median_of(std::move(warm_store_runs));

    const bool equal = same_power(cold.best_power, warm.best_power) &&
                       same_power(cold.best_power, cold_store.best_power) &&
                       same_power(cold.best_power, warm_store.best_power);
    table.add_row(
        {benchmark.name, util::Table::cell(cold.seconds, 2),
         util::Table::cell(cold.hit_rate * 100.0, 1) + "%",
         util::Table::cell(warm.seconds, 2),
         util::Table::cell(cold.seconds / warm.seconds, 2) + "x",
         util::Table::cell(cold.scenarios_per_second, 0),
         util::Table::cell(cold_store.seconds, 2),
         util::Table::cell(warm_store.seconds, 2),
         util::Table::cell(cold_store.seconds / warm_store.seconds, 2) + "x",
         equal ? "yes" : "NO"});

    all_equal = all_equal && equal;
    json_benchmarks.push(
        obs::Json::object()
            .set("name", benchmark.name)
            .set("cold_s", obs::Json::number(cold.seconds, 4))
            .set("cold_hit_rate", obs::Json::number(cold.hit_rate, 3))
            .set("warm_s", obs::Json::number(warm.seconds, 4))
            .set("warm_speedup",
                 obs::Json::number(cold.seconds / warm.seconds, 2))
            .set("scenarios_per_s",
                 obs::Json::number(cold.scenarios_per_second, 0))
            .set("cold_store_s", obs::Json::number(cold_store.seconds, 4))
            .set("warm_store_s", obs::Json::number(warm_store.seconds, 4))
            .set("store_speedup",
                 obs::Json::number(
                     cold_store.seconds / warm_store.seconds, 2))
            .set("warm_store_hit_rate",
                 obs::Json::number(warm_store.hit_rate, 3))
            .set("equal", equal));
  }
  table.print(std::cout);
  std::cout
      << "(identical seeds and trajectories in every arm; 'best power "
         "equal' cross-checks the differential guarantee.  Warm shows the "
         "steady-state regime of repeated exploration on an unchanged "
         "model.)\n";
  obs::Json summary = obs::Json::object();
  summary.set("bench", "dse_cache")
      .set("generations", generations)
      .set("population", population)
      .set("reps", reps)
      .set("benchmarks", std::move(json_benchmarks))
      .set("equal", all_equal);
  reporter.finish(summary);
  return all_equal ? 0 : 1;
}
