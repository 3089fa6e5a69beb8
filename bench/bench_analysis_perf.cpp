// Microbenchmarks (google-benchmark) for the analysis stack, exercising the
// complexity claim of Section 3: Algorithm 1 costs O(|V|^2 + |V| * C) on top
// of the backend's C, so wall time should grow roughly polynomially in the
// task count.  Also measures the simulator and a full candidate evaluation
// (the DSE inner loop).
#include <benchmark/benchmark.h>

#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/evaluation_cache.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sim/simulator.hpp"
#include "ftmc/util/thread_pool.hpp"

namespace {

using namespace ftmc;

struct Instance {
  model::Architecture arch;
  model::ApplicationSet apps;
  core::Candidate candidate;
  hardening::HardenedSystem system;
};

/// Synthetic instance with ~`tasks` tasks and a repaired random candidate.
Instance make_instance(std::size_t tasks) {
  benchmarks::SynthParams params;
  params.seed = 99 + tasks;
  params.graph_count = std::max<std::size_t>(2, tasks / 6);
  params.min_tasks = 5;
  params.max_tasks = 7;
  params.graph_utilization = 0.5 / static_cast<double>(params.graph_count);
  auto apps = benchmarks::synthetic_applications(params);
  auto arch = model::ArchitectureBuilder{}
                  .add_processors({"pe", 0, 50.0, 150.0, 2e-9, 1.0}, 4)
                  .bandwidth(100.0)
                  .build();
  const dse::Decoder decoder(arch, apps);
  util::Rng rng(tasks);
  dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
  core::Candidate candidate = decoder.decode(chromosome, rng);
  auto system = hardening::apply_hardening(apps, candidate.plan,
                                           candidate.base_mapping,
                                           arch.processor_count());
  return Instance{std::move(arch), std::move(apps), std::move(candidate),
                  std::move(system)};
}

void BM_HolisticBackend(benchmark::State& state) {
  const Instance instance = make_instance(state.range(0));
  const sched::HolisticAnalysis backend;
  const auto bounds = core::nominal_bounds_of(instance.system);
  const auto priorities = sched::assign_priorities(instance.system.apps);
  // Production path: bind the candidate once, solve per bounds vector.
  const auto prepared =
      backend.prepare(instance.arch, instance.system.apps,
                      instance.system.mapping, priorities);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prepared->solve(bounds));
  }
  state.SetLabel(std::to_string(instance.system.apps.task_count()) +
                 " tasks");
}
BENCHMARK(BM_HolisticBackend)->Arg(12)->Arg(24)->Arg(48)->Arg(96);

/// Reference arm: the retired rebuild-per-call entry point, kept only to
/// quantify what prepare() amortizes (problem build per solve).
void BM_HolisticBackendRebuild(benchmark::State& state) {
  const Instance instance = make_instance(state.range(0));
  const sched::HolisticAnalysis backend;
  const auto bounds = core::nominal_bounds_of(instance.system);
  const auto priorities = sched::assign_priorities(instance.system.apps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.analyze(
        instance.arch, instance.system.apps, instance.system.mapping, bounds,
        priorities));
  }
  state.SetLabel(std::to_string(instance.system.apps.task_count()) +
                 " tasks");
}
BENCHMARK(BM_HolisticBackendRebuild)->Arg(24)->Arg(96);

void BM_McAnalysisProposed(benchmark::State& state) {
  const Instance instance = make_instance(state.range(0));
  const sched::HolisticAnalysis backend;
  const core::McAnalysis analysis(backend);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis.analyze(instance.arch, instance.system,
                                              instance.candidate.drop));
  }
  state.SetLabel(std::to_string(instance.system.apps.task_count()) +
                 " tasks");
}
BENCHMARK(BM_McAnalysisProposed)->Arg(12)->Arg(24)->Arg(48)->Arg(96);

/// Same analysis with the transition scenarios fanned out over a thread
/// pool (results bitwise identical; see tests/test_parallel_analysis.cpp).
void BM_McAnalysisProposedParallel(benchmark::State& state) {
  const Instance instance = make_instance(state.range(0));
  const sched::HolisticAnalysis backend;
  const core::McAnalysis analysis(backend);
  util::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis.analyze(instance.arch, instance.system,
                         instance.candidate.drop,
                         core::McAnalysis::Mode::kProposed, &pool));
  }
  state.SetLabel(std::to_string(instance.system.apps.task_count()) +
                 " tasks, " + std::to_string(pool.thread_count()) +
                 " threads");
}
BENCHMARK(BM_McAnalysisProposedParallel)
    ->Args({48, 2})
    ->Args({48, 4})
    ->Args({96, 2})
    ->Args({96, 4})
    ->Args({96, 8});

/// Every task re-executed: every task is a transition trigger, so the
/// scenario count (and thus the bounds-construction work Algorithm 1 does
/// per candidate) is maximal for the instance size.
Instance make_all_hardened_instance(std::size_t tasks) {
  Instance instance = make_instance(tasks);
  hardening::HardeningPlan plan(instance.apps.task_count());
  for (auto& task : plan) {
    task.technique = hardening::Technique::kReexecution;
    task.reexecutions = 2;
  }
  instance.candidate.plan = plan;
  instance.system = hardening::apply_hardening(
      instance.apps, plan, instance.candidate.base_mapping,
      instance.arch.processor_count());
  return instance;
}

/// Algorithm 1 on an all-hardened instance, where every task triggers a
/// transition scenario: the cost of scenario construction, dedup and
/// solving as the task count grows.
void BM_McAnalysisScenarioConstruction(benchmark::State& state) {
  const Instance instance = make_all_hardened_instance(state.range(0));
  const sched::HolisticAnalysis backend;
  const core::McAnalysis analysis(backend);
  std::size_t scenarios = 0;
  for (auto _ : state) {
    const auto result = analysis.analyze(instance.arch, instance.system,
                                         instance.candidate.drop);
    scenarios = result.scenario_count;
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(std::to_string(instance.system.apps.task_count()) +
                 " tasks, " + std::to_string(scenarios) + " scenarios");
}
BENCHMARK(BM_McAnalysisScenarioConstruction)->Arg(24)->Arg(48)->Arg(96);

void BM_SimulatorHyperperiod(benchmark::State& state) {
  const Instance instance = make_instance(state.range(0));
  const auto priorities = sched::assign_priorities(instance.system.apps);
  const sim::Simulator simulator(instance.arch, instance.system,
                                 instance.candidate.drop, priorities);
  util::Rng rng(7);
  sim::RandomFaults faults(rng.split(), 0.3);
  sim::UniformExecution durations(rng.split());
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run(faults, durations));
  }
}
BENCHMARK(BM_SimulatorHyperperiod)->Arg(24)->Arg(96);

void BM_FullCandidateEvaluation(benchmark::State& state) {
  const Instance instance = make_instance(state.range(0));
  const sched::HolisticAnalysis backend;
  const core::Evaluator evaluator(instance.arch, instance.apps, backend);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(instance.candidate));
  }
}
BENCHMARK(BM_FullCandidateEvaluation)->Arg(24)->Arg(48);

/// Steady-state hit path of the evaluation cache: after the first
/// iteration every lookup is a hit, so this measures hash + sharded-map
/// lookup + Evaluation copy — the cost a converged DSE pays per duplicate
/// offspring instead of a full Algorithm-1 rerun.
void BM_FullCandidateEvaluationCached(benchmark::State& state) {
  const Instance instance = make_instance(state.range(0));
  const sched::HolisticAnalysis backend;
  core::EvaluationCache cache;
  core::Evaluator::Options options;
  options.cache = &cache;
  const core::Evaluator evaluator(instance.arch, instance.apps, backend,
                                  options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(instance.candidate));
  }
  state.SetLabel("hit rate " +
                 std::to_string(cache.stats().hit_rate()).substr(0, 4));
}
BENCHMARK(BM_FullCandidateEvaluationCached)->Arg(24)->Arg(48);

/// The key computation alone (content hash of the decoded candidate).
void BM_CandidateHash(benchmark::State& state) {
  const Instance instance = make_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::candidate_hash(instance.candidate));
  }
}
BENCHMARK(BM_CandidateHash)->Arg(48)->Arg(96);

}  // namespace

BENCHMARK_MAIN();
