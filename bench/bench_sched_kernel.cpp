// A/B measurement of the prepared-problem analysis kernel: multi-scenario
// candidate evaluation on the DT-med (dream) and DT-large benchmarks, same
// candidates in every arm.
//
//   rebuild+sweep      the seed path: every scenario rebuilds the holistic
//                      problem from scratch (rebuild-per-solve adapter) and
//                      runs the reference full-sweep global fixed point
//                      (PreparedProblem::solve_reference_sweep);
//   rebuild+worklist   per-scenario rebuild, production worklist fixed
//                      point, one scenario per solve — isolates the
//                      fixed-point gain;
//   prepared           the production path: one PreparedProblem per
//                      candidate shared by the normal state, the Naive pass,
//                      and every transition scenario, scenarios solved as
//                      lanes of solve_many() — isolates the prepare-once
//                      and batching gain on top.
//
// Each arm runs McAnalysis::analyze (Algorithm 1, Proposed mode) over the
// same seeded random candidates and reports the median of FTMC_REPS
// repetitions; per-task WCRT bounds are checksummed across arms, so the
// printed speedups compare bit-identical computations (the differential
// guarantee of tests/test_prepared_problem.cpp).  A self-contained micro
// benchmark also compares the packed bitset relation-row test against the
// vector<vector<bool>> layout it replaced.
//
// The last line is a one-line JSON summary (like bench_dse_cache) for CI
// and scripted regression tracking.
//
// Environment knobs: FTMC_CANDIDATES (default 24), FTMC_SEED (2014),
// FTMC_THREADS (0 = scenarios sequential; N > 0 fans scenarios out on a
// pool), FTMC_REPS (3).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sched/prepared_problem.hpp"
#include "ftmc/util/rng.hpp"
#include "ftmc/util/table.hpp"
#include "ftmc/util/thread_pool.hpp"

using namespace ftmc;

namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const long parsed = std::atol(raw);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// One decoded candidate with its hardened system (the per-candidate unit
/// the DSE evaluates).
struct PreparedCandidate {
  core::Candidate candidate;
  hardening::HardenedSystem system;
};

std::vector<PreparedCandidate> make_candidates(
    const benchmarks::Benchmark& benchmark, std::size_t count,
    std::uint64_t seed) {
  const dse::Decoder decoder(benchmark.arch, benchmark.apps);
  util::Rng rng(seed);
  std::vector<PreparedCandidate> candidates;
  candidates.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
    core::Candidate candidate = decoder.decode(chromosome, rng);
    auto system = hardening::apply_hardening(
        benchmark.apps, candidate.plan, candidate.base_mapping,
        benchmark.arch.processor_count());
    candidates.push_back({std::move(candidate), std::move(system)});
  }
  return candidates;
}

/// The holistic backend without its prepared kernel: no prepare()
/// override, so McAnalysis gets the rebuild-per-solve adapter and every
/// scenario rebuilds the problem; `sweep` picks the reference full sweep
/// over the production worklist.
class RebuildBackend final : public sched::SchedulingAnalysis {
 public:
  explicit RebuildBackend(bool sweep) : sweep_(sweep) {}

  sched::AnalysisResult analyze(
      const model::Architecture& arch, const model::ApplicationSet& apps,
      const model::Mapping& mapping, std::span<const sched::ExecBounds> bounds,
      std::span<const std::uint32_t> priorities) const override {
    const sched::PreparedProblem problem(arch, apps, mapping, priorities, {});
    return sweep_ ? problem.solve_reference_sweep(bounds)
                  : problem.solve(bounds);
  }

 private:
  bool sweep_;
};

struct ArmOutcome {
  double seconds = 0.0;
  std::uint64_t checksum = 0;  ///< FNV-ish fold of every WCRT bound
  std::size_t scenarios = 0;
};

ArmOutcome run_arm(const benchmarks::Benchmark& benchmark,
                   const std::vector<PreparedCandidate>& candidates,
                   const sched::SchedulingAnalysis& backend,
                   util::ThreadPool* pool) {
  const core::McAnalysis analysis(backend);
  ArmOutcome outcome;
  const auto start = std::chrono::steady_clock::now();
  for (const PreparedCandidate& pc : candidates) {
    const core::McAnalysisResult result = analysis.analyze(
        benchmark.arch, pc.system, pc.candidate.drop,
        core::McAnalysis::Mode::kProposed, pool);
    outcome.scenarios += result.scenario_count;
    for (const model::Time bound : result.wcrt)
      outcome.checksum =
          (outcome.checksum ^ static_cast<std::uint64_t>(bound)) *
          0x100000001b3ULL;
  }
  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return outcome;
}

ArmOutcome run_arm_median(const benchmarks::Benchmark& benchmark,
                          const std::vector<PreparedCandidate>& candidates,
                          const sched::SchedulingAnalysis& backend,
                          util::ThreadPool* pool, std::size_t reps) {
  std::vector<ArmOutcome> outcomes;
  for (std::size_t r = 0; r < reps; ++r)
    outcomes.push_back(run_arm(benchmark, candidates, backend, pool));
  std::sort(outcomes.begin(), outcomes.end(),
            [](const ArmOutcome& a, const ArmOutcome& b) {
              return a.seconds < b.seconds;
            });
  return outcomes[outcomes.size() / 2];
}

/// Bitset-row vs vector<vector<bool>> membership micro: the inner loop of
/// offset_interference is "is u related to i" over the interferer list; this
/// reproduces that access pattern on a synthetic relation.
struct MicroOutcome {
  double bool_ns = 0.0;
  double bitset_ns = 0.0;
  double bool_build_us = 0.0;
  double bitset_build_us = 0.0;
};

MicroOutcome relation_micro() {
  constexpr std::size_t kNodes = 384;
  constexpr std::size_t kInterferers = 24;
  constexpr std::size_t kReps = 400;
  util::Rng rng(7);

  std::vector<std::vector<bool>> dense(kNodes,
                                       std::vector<bool>(kNodes, false));
  const std::size_t words = (kNodes + 63) / 64;
  std::vector<std::uint64_t> bits(kNodes * words, 0);
  for (std::size_t i = 0; i < kNodes; ++i)
    for (std::size_t u = 0; u < kNodes; ++u)
      if (rng.chance(0.25)) {
        dense[i][u] = true;
        bits[i * words + (u >> 6)] |= std::uint64_t{1} << (u & 63);
      }
  // The kernel's access pattern: per node i, test membership of each entry
  // of its interferer list (row-hot, list in ascending order).
  std::vector<std::vector<std::size_t>> interferers(kNodes);
  for (auto& list : interferers) {
    list.resize(kInterferers);
    for (std::size_t& u : list) u = rng.index(kNodes);
    std::sort(list.begin(), list.end());
  }
  const double queries =
      static_cast<double>(kReps) * kNodes * kInterferers;

  MicroOutcome outcome;
  volatile std::size_t sink = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    std::size_t hits = 0;
    for (std::size_t rep = 0; rep < kReps; ++rep)
      for (std::size_t i = 0; i < kNodes; ++i) {
        const std::vector<bool>& row = dense[i];
        for (const std::size_t u : interferers[i]) hits += row[u] ? 1 : 0;
      }
    sink = hits;
    outcome.bool_ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      queries;
  }
  {
    const auto start = std::chrono::steady_clock::now();
    std::size_t hits = 0;
    for (std::size_t rep = 0; rep < kReps; ++rep)
      for (std::size_t i = 0; i < kNodes; ++i) {
        const std::uint64_t* row = bits.data() + i * words;
        for (const std::size_t u : interferers[i])
          hits += (row[u >> 6] >> (u & 63)) & 1u;
      }
    sink = sink + hits;
    outcome.bitset_ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start)
                            .count() /
                        queries;
  }
  // Construction: the matrix is rebuilt per prepare (once per candidate —
  // and, before this kernel, once per scenario); the flat layout is a
  // single allocation instead of one per row.
  constexpr std::size_t kBuildReps = 200;
  {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < kBuildReps; ++rep) {
      std::vector<std::vector<bool>> built(kNodes,
                                           std::vector<bool>(kNodes, false));
      built[rep % kNodes][rep % kNodes] = true;
      sink = sink + (built[0][0] ? 1 : 0);
    }
    outcome.bool_build_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count() /
                            kBuildReps;
  }
  {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < kBuildReps; ++rep) {
      std::vector<std::uint64_t> built(kNodes * words, 0);
      built[rep % built.size()] = 1;
      sink = sink + built[0];
    }
    outcome.bitset_build_us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - start)
                                  .count() /
                              kBuildReps;
  }
  (void)sink;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Reporter reporter(argc, argv);
  const std::size_t candidate_count = env_or("FTMC_CANDIDATES", 24);
  const std::uint64_t seed = env_or("FTMC_SEED", 2014);
  const std::size_t threads = env_or("FTMC_THREADS", 0);
  const std::size_t reps = env_or("FTMC_REPS", 3);

  std::cout << "Analysis-kernel A/B: " << candidate_count
            << " candidates per benchmark, seed " << seed << ", median of "
            << reps << ", scenario threads " << (threads == 0 ? 1 : threads)
            << " (FTMC_CANDIDATES / FTMC_SEED / FTMC_THREADS / FTMC_REPS)\n";

  const RebuildBackend seed_backend(/*sweep=*/true);
  const RebuildBackend rebuild_backend(/*sweep=*/false);
  const sched::HolisticAnalysis prepared_backend;

  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);

  util::Table table(
      "Multi-scenario candidate evaluation: per-scenario rebuild + full "
      "sweep (seed) vs prepared kernel");
  table.set_header({"benchmark", "scenarios", "seed [s]", "worklist [s]",
                    "prepared [s]", "prepare speedup", "total speedup",
                    "scen/s", "identical"});

  obs::Json json_benchmarks = obs::Json::array();
  bool all_identical = true;
  double dream_total_speedup = 0.0;
  for (const bool large : {false, true}) {
    const benchmarks::Benchmark benchmark =
        large ? benchmarks::dt_large_benchmark()
              : benchmarks::dt_med_benchmark();
    const std::vector<PreparedCandidate> candidates =
        make_candidates(benchmark, candidate_count, seed);

    const ArmOutcome seed_arm = run_arm_median(benchmark, candidates,
                                               seed_backend, pool.get(), reps);
    const ArmOutcome worklist_arm = run_arm_median(
        benchmark, candidates, rebuild_backend, pool.get(), reps);
    const ArmOutcome prepared_arm = run_arm_median(
        benchmark, candidates, prepared_backend, pool.get(), reps);

    const bool identical = seed_arm.checksum == worklist_arm.checksum &&
                           seed_arm.checksum == prepared_arm.checksum;
    all_identical = all_identical && identical;
    const double worklist_speedup = seed_arm.seconds / worklist_arm.seconds;
    // The headline of this bench: the production path vs the seed path,
    // and the share of it that prepare-once plus batching contribute.
    const double prepare_speedup = worklist_arm.seconds / prepared_arm.seconds;
    const double total_speedup = seed_arm.seconds / prepared_arm.seconds;
    const double scenarios_per_s =
        prepared_arm.seconds > 0.0
            ? static_cast<double>(prepared_arm.scenarios) /
                  prepared_arm.seconds
            : 0.0;
    if (!large) dream_total_speedup = total_speedup;

    table.add_row({benchmark.name, std::to_string(seed_arm.scenarios),
                   util::Table::cell(seed_arm.seconds, 3),
                   util::Table::cell(worklist_arm.seconds, 3),
                   util::Table::cell(prepared_arm.seconds, 3),
                   util::Table::cell(prepare_speedup, 2) + "x",
                   util::Table::cell(total_speedup, 2) + "x",
                   util::Table::cell(scenarios_per_s, 0),
                   identical ? "yes" : "NO"});

    json_benchmarks.push(
        obs::Json::object()
            .set("name", benchmark.name)
            .set("scenarios", seed_arm.scenarios)
            .set("seed_s", obs::Json::number(seed_arm.seconds, 4))
            .set("rebuild_worklist_s",
                 obs::Json::number(worklist_arm.seconds, 4))
            .set("prepared_s", obs::Json::number(prepared_arm.seconds, 4))
            .set("worklist_speedup", obs::Json::number(worklist_speedup, 2))
            .set("prepare_speedup", obs::Json::number(prepare_speedup, 2))
            .set("total_speedup", obs::Json::number(total_speedup, 2))
            .set("scenarios_per_s", obs::Json::number(scenarios_per_s, 0))
            .set("identical", identical));
  }
  table.print(std::cout);

  const MicroOutcome micro = relation_micro();
  std::cout << "relation-row micro: membership vector<vector<bool>> "
            << util::Table::cell(micro.bool_ns, 2) << " ns vs packed bitset "
            << util::Table::cell(micro.bitset_ns, 2) << " ns ("
            << util::Table::cell(micro.bool_ns / micro.bitset_ns, 2)
            << "x); construction "
            << util::Table::cell(micro.bool_build_us, 1) << " us vs "
            << util::Table::cell(micro.bitset_build_us, 1) << " us ("
            << util::Table::cell(
                   micro.bool_build_us / micro.bitset_build_us, 1)
            << "x)\n";
  std::cout << "(same candidates and seeds in every arm; 'identical' "
               "cross-checks the WCRT checksum across the three kernel "
               "configurations.)\n";

  obs::Json summary = obs::Json::object();
  summary.set("bench", "sched_kernel")
      .set("candidates", candidate_count)
      .set("reps", reps)
      .set("threads", threads)
      .set("benchmarks", std::move(json_benchmarks))
      .set("bitset_ns", obs::Json::number(micro.bitset_ns, 2))
      .set("bool_ns", obs::Json::number(micro.bool_ns, 2))
      .set("bitset_build_us", obs::Json::number(micro.bitset_build_us, 1))
      .set("bool_build_us", obs::Json::number(micro.bool_build_us, 1))
      .set("identical", all_identical);
  reporter.finish(summary);
  return all_identical && dream_total_speedup > 0.0 ? 0 : 1;
}
