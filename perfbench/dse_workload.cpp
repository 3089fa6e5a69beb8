// The two GA workloads.
//
// dse-eval-dtlarge runs SPEA2 with a small archive (100) on the largest
// benchmark, so nearly every offspring misses the genotype memo and pays
// decode, hardening, Algorithm 1 and a cache insert: candidate evaluation
// dominates.  dse-select-synth1 runs a large archive (200) on synthetic
// benchmark 1, whose archive collapses onto a handful of objective vectors:
// SPEA2 truncation dominates, evaluation is cheap (about half the candidates
// hit the L1 evaluation cache) and a checkpoint is written every generation.  Each workload is the other's
// control: a selection change should not move the first, a WCRT-kernel
// change should not move the second.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "core_replay.hpp"
#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/evaluation_cache.hpp"
#include "ftmc/dse/checkpoint.hpp"
#include "ftmc/dse/executor.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sched/priority.hpp"
#include "ftmc/sim/monte_carlo.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ftmc;

std::size_t workload_threads() { return 1; }

std::size_t check_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

namespace {

struct DseShape {
  benchmarks::Benchmark (*system)();
  std::size_t population;  ///< archive size = offspring per generation
  std::size_t generations;
  /// GA seeds per round; figures are taken over these trajectories.
  std::size_t trajectories;
  bool checkpoint;
  /// Power coordinate [mW] of the fixed hypervolume reference point (the
  /// service coordinate is 0).
  double hv_reference_power;
};

DseShape shape_of(const std::string& workload) {
  if (workload == "dse-eval-dtlarge")
    return {&benchmarks::dt_large_benchmark, 100, 100, 4, false, 1400.0};
  if (workload == "dse-select-synth1")
    return {+[] { return benchmarks::synth_benchmark(1); }, 200, 34, 3, true,
            400.0};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

/// The benchmark system, parsed from its text form as `ftmc optimize`
/// would, with its analysis backend and optimizer.
struct DseSystem {
  explicit DseSystem(const std::string& text)
      : bench(parse(text)), optimizer(bench.arch, bench.apps, backend) {}

  static benchmarks::Benchmark parse(const std::string& text) {
    io::SystemSpec spec = io::parse_system_string(text);
    return {"parsed", std::move(spec.arch), std::move(spec.apps)};
  }

  benchmarks::Benchmark bench;
  sched::HolisticAnalysis backend;
  dse::GeneticOptimizer optimizer;
};

std::uint64_t trajectory_seed(std::uint64_t seed, std::size_t trajectory) {
  return seed * 16 + trajectory;
}

dse::GaOptions ga_options(const DseShape& shape, std::uint64_t seed,
                          const std::string& checkpoint_path) {
  dse::GaOptions options;
  options.population = shape.population;
  options.offspring = shape.population;
  options.generations = shape.generations;
  options.seed = seed;
  options.threads = workload_threads();
  if (shape.checkpoint) {
    options.checkpoint_path = checkpoint_path;
    options.checkpoint_keep = 1;
  }
  return options;
}

struct GaRun {
  double seconds = 0.0;
  /// Wall time between consecutive on_generation calls.
  std::vector<double> generation_ms;
  dse::GaResult result;
};

GaRun timed_run(const dse::GeneticOptimizer& optimizer,
                dse::GaOptions options) {
  GaRun run;
  Clock::time_point last;
  bool started = false;
  const auto observer = options.on_generation;
  options.on_generation = [&](const dse::GenerationStats& stats) {
    const auto now = Clock::now();
    if (started)
      run.generation_ms.push_back(
          std::chrono::duration<double, std::milli>(now - last).count());
    last = now;
    started = true;
    if (observer) observer(stats);
  };
  const auto start = Clock::now();
  run.result = optimizer.run(options);
  run.seconds = seconds_since(start);
  return run;
}

bool same_front(const dse::GaResult& a, const dse::GaResult& b) {
  if (a.evaluations != b.evaluations || a.pareto.size() != b.pareto.size())
    return false;
  for (std::size_t i = 0; i < a.pareto.size(); ++i)
    if (!(a.pareto[i].chromosome == b.pareto[i].chromosome) ||
        !(a.pareto[i].candidate == b.pareto[i].candidate) ||
        !same_evaluation(a.pareto[i].evaluation, b.pareto[i].evaluation))
      return false;
  return true;
}

/// Area of the (power, service) region the feasible front dominates,
/// bounded by the reference point (reference_power, 0).
double front_hypervolume(const dse::GaResult& result, double reference_power) {
  std::vector<std::pair<double, double>> points;  // (service, power)
  for (const dse::Individual& member : result.pareto)
    if (member.evaluation.power < reference_power)
      points.emplace_back(member.evaluation.service, member.evaluation.power);
  std::sort(points.begin(), points.end());
  double area = 0.0;
  double covered_service = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    // The cheapest point offering at least this much service.
    double power = points[i].second;
    for (std::size_t j = i + 1; j < points.size(); ++j)
      power = std::min(power, points[j].second);
    area += (reference_power - power) * (points[i].first - covered_service);
    covered_service = points[i].first;
  }
  return area;
}

/// Section 5.1: Algorithm 1's bound of every non-dropped graph must cover
/// the worst response Monte-Carlo simulation finds.  Checked on the front
/// and on the first archive members with distinct objectives, so a run
/// whose front is still empty is checked too.
struct SimTotals {
  double seconds = 0.0;
  std::size_t events = 0;
  std::size_t checks = 0;
};

SimTotals check_safety(const benchmarks::Benchmark& bench,
                       const dse::GaResult& result, std::uint64_t seed,
                       Report& report) {
  std::vector<dse::Individual> front = result.pareto;
  std::set<dse::ObjectiveVector> seen;
  for (const dse::Individual& member : result.archive)
    if (seen.size() < 6 && seen.insert(member.objectives).second)
      front.push_back(member);
  SimTotals totals;
  for (std::size_t i = 0; i < front.size(); ++i) {
    const core::Candidate& candidate = front[i].candidate;
    const hardening::HardenedSystem system = hardening::apply_hardening(
        bench.apps, candidate.plan, candidate.base_mapping,
        bench.arch.processor_count());
    sim::MonteCarloOptions mc;
    mc.profiles = 1000;
    mc.fault_probability = 0.3;
    mc.seed = seed * 1000 + i;
    mc.threads = check_threads();
    const auto start = Clock::now();
    const sim::MonteCarloResult observed = sim::monte_carlo_wcrt(
        bench.arch, system, candidate.drop,
        sched::assign_priorities(system.apps), mc);
    totals.seconds += seconds_since(start);
    totals.events += observed.events_processed;
    for (std::size_t g = 0; g < observed.worst_response.size(); ++g) {
      if (candidate.drop[g] || observed.worst_response[g] < 0) continue;
      ++totals.checks;
      if (front[i].evaluation.graph_wcrt[g] < observed.worst_response[g])
        report.fail("Section 5.1 safety: member " + std::to_string(i) +
                    " graph " + std::to_string(g) + " bound " +
                    std::to_string(front[i].evaluation.graph_wcrt[g]) +
                    " < simulated " +
                    std::to_string(observed.worst_response[g]));
    }
  }
  return totals;
}

/// Output checks shared by both modes: every front member's stored
/// evaluation equals a fresh evaluate_uncached of its candidate.
void check_front(const DseSystem& system, const dse::GaResult& result,
                 Report& report) {
  const core::Evaluator evaluator(system.bench.arch, system.bench.apps,
                                  system.backend);
  for (const dse::Individual& member : result.pareto) {
    ++report.attempted;
    if (!same_evaluation(evaluator.evaluate_uncached(member.candidate),
                         member.evaluation))
      report.fail("front member's evaluation differs from evaluate_uncached");
  }
}

// --- Traced run -------------------------------------------------------------

struct CapturedRequest {
  dse::Chromosome genotype;  ///< pre-repair
  std::uint64_t key = 0;
  CapturedEvaluation outcome;
};

/// Times every executor call and keeps a seeded reservoir sample of the
/// requests and outcomes for the decode and core replays.
class TimingExecutor final : public dse::Executor {
 public:
  TimingExecutor(dse::Executor& inner, std::uint64_t seed)
      : inner_(&inner), rng_(seed) {}

  const char* name() const noexcept override { return "timed"; }

  void evaluate(const std::vector<dse::EvalRequest>& requests,
                std::vector<dse::EvalOutcome>& outcomes) override {
    const auto start = Clock::now();
    inner_->evaluate(requests, outcomes);
    calls.emplace_back(start, Clock::now());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::size_t seen = items++;
      std::size_t slot = seen;
      if (seen >= kSamples) {
        slot = rng_.index(seen + 1);
        if (slot >= kSamples) continue;
      }
      CapturedRequest captured{*requests[i].genotype, requests[i].key,
                               {*requests[i].candidate, outcomes[i].evaluation,
                                !outcomes[i].cache_hit}};
      if (slot < samples.size())
        samples[slot] = std::move(captured);
      else
        samples.push_back(std::move(captured));
    }
  }

  static constexpr std::size_t kSamples = 300;
  /// Start and end of every call, one per generation.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> calls;
  std::size_t items = 0;
  std::vector<CapturedRequest> samples;

 private:
  dse::Executor* inner_;
  util::Rng rng_;
};

/// A GA run through the timing executor, with its observers attached.
struct TracedGa {
  GaRun run;
  /// Offspring objectives per generation, in the order the GA folds them.
  std::vector<std::vector<dse::ObjectiveVector>> batches;
  /// When the GA reported each generation.
  std::vector<Clock::time_point> generation_at;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> calls;
  std::size_t items = 0;
  std::vector<CapturedRequest> samples;
  core::CacheStats cache;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_bytes = 0;
};

TracedGa traced_ga(DseSystem& system, dse::GaOptions options,
                   std::uint64_t seed) {
  TracedGa traced;
  util::ThreadPool pool(workload_threads());
  core::EvaluationCache cache(options.cache_capacity);
  core::Evaluator::Options evaluator_options;
  evaluator_options.cache = &cache;
  evaluator_options.scenario_pool = &pool;
  const core::Evaluator evaluator(system.bench.arch, system.bench.apps,
                                  system.backend, evaluator_options);
  dse::InProcessExecutor in_process(evaluator, pool);
  TimingExecutor timed(in_process, seed);
  options.executor = &timed;

  traced.batches.emplace_back();
  system.optimizer.set_observer(
      [&](const core::Candidate&, const core::Evaluation& evaluation) {
        traced.batches.back().push_back(
            {evaluation.power, -evaluation.service});
      });
  options.on_generation = [&](const dse::GenerationStats&) {
    traced.generation_at.push_back(Clock::now());
    traced.batches.emplace_back();
  };
  const obs::MetricsSnapshot before = obs::snapshot();
  traced.run = timed_run(system.optimizer, options);
  const obs::MetricsSnapshot after = obs::snapshot();
  system.optimizer.set_observer(nullptr);
  traced.batches.pop_back();  // opened after the last generation

  traced.calls = std::move(timed.calls);
  traced.items = timed.items;
  traced.samples = std::move(timed.samples);
  traced.cache = cache.stats();
  traced.checkpoint_writes = after.value_of("dse.checkpoint.writes") -
                             before.value_of("dse.checkpoint.writes");
  traced.checkpoint_bytes = after.value_of("dse.checkpoint.bytes") -
                            before.value_of("dse.checkpoint.bytes");
  return traced;
}

void traced_run(const Args& args, const DseShape& shape, DseSystem& system,
                const std::string& checkpoint_path, Report& report) {
  const model::Architecture& arch = system.bench.arch;
  const model::ApplicationSet& apps = system.bench.apps;
  const std::size_t threads = workload_threads();
  const dse::GaOptions options =
      ga_options(shape, trajectory_seed(args.seed, 0), checkpoint_path);

  // Untraced and traced runs of one trajectory alternate over most of the
  // budget (the replays below take the rest).  The tracing overhead is the
  // ratio of their medians; the layers come from the last traced run.
  std::vector<double> plain_s, traced_s;
  TracedGa traced;
  const auto budget_start = Clock::now();
  do {
    const GaRun plain = timed_run(system.optimizer, options);
    traced = traced_ga(system, options, args.seed);
    plain_s.push_back(plain.seconds);
    traced_s.push_back(traced.run.seconds);
    report.attempted +=
        plain.result.evaluations + traced.run.result.evaluations;
    if (!same_front(plain.result, traced.run.result))
      report.fail("the timed executor changed the GA's front");
  } while (seconds_since(budget_start) + plain_s.back() + traced_s.back() <
           0.6 * args.seconds);
  const std::vector<std::vector<dse::ObjectiveVector>>& batches =
      traced.batches;
  if (batches.size() != shape.generations + 1)
    report.fail("observer saw " + std::to_string(batches.size()) +
                " batches, expected one per generation");

  // Environmental selection is timed in the run itself: between the
  // executor returning a generation's batch and the GA reporting that
  // generation, it only folds the batch in, runs spea2_select and tallies
  // its statistics.
  double busy_s = 0.0, select_s = 0.0;
  for (const auto& [start, end] : traced.calls)
    busy_s += std::chrono::duration<double>(end - start).count();
  if (traced.calls.size() != traced.generation_at.size()) {
    report.fail("expected one executor call per generation");
  } else {
    for (std::size_t g = 0; g < traced.generation_at.size(); ++g)
      select_s += std::chrono::duration<double>(traced.generation_at[g] -
                                                traced.calls[g].second)
                      .count();
  }

  // Shadow SPEA2: replay every environmental selection on the objectives
  // the observer saw; the final archive must be the GA's.
  double fitness_s = 0.0;
  std::vector<dse::ObjectiveVector> archive;
  for (std::size_t g = 0; g < batches.size(); ++g) {
    std::vector<dse::ObjectiveVector> combined = archive;
    combined.insert(combined.end(), batches[g].begin(), batches[g].end());
    const std::vector<std::size_t> keep =
        dse::spea2_select(combined, shape.population);
    archive.clear();
    for (const std::size_t index : keep) archive.push_back(combined[index]);
    if (g + 1 == batches.size()) break;  // the GA breeds no more
    const auto start = Clock::now();
    (void)dse::spea2_fitness(archive);
    fitness_s += seconds_since(start);
  }
  bool archive_matches = archive.size() == traced.run.result.archive.size();
  for (std::size_t i = 0; archive_matches && i < archive.size(); ++i)
    archive_matches = archive[i] == traced.run.result.archive[i].objectives;
  if (!archive_matches)
    report.fail("shadow SPEA2 archive differs from the GA's final archive");
  std::set<dse::ObjectiveVector> distinct(archive.begin(), archive.end());

  // Variation: the breeding loop's operator calls over the final archive.
  const dse::ChromosomeShape chromosome_shape =
      dse::ChromosomeShape::of(arch, apps);
  util::Rng rng(args.seed ^ 0x5eedULL);
  const auto variation_start = Clock::now();
  for (std::size_t g = 0; g < shape.generations; ++g)
    for (std::size_t i = 0; i < shape.population; ++i) {
      const std::vector<dse::Individual>& parents = traced.run.result.archive;
      const dse::Individual& a = parents[rng.index(parents.size())];
      const dse::Individual& b = parents[rng.index(parents.size())];
      dse::Chromosome child =
          rng.chance(options.variation.crossover_rate)
              ? dse::crossover(a.chromosome, b.chromosome, chromosome_shape,
                               rng)
              : a.chromosome;
      dse::mutate(child, chromosome_shape, options.variation, rng);
    }
  const double variation_s = seconds_since(variation_start);

  // Decode: replay the sampled memo misses on one thread; the GA decodes on
  // `threads` workers, so its wall share is the CPU time over threads.
  const dse::Decoder decoder(arch, apps, options.decoder);
  double decode_cpu_s = 0.0;
  for (const CapturedRequest& sample : traced.samples) {
    dse::Chromosome genotype = sample.genotype;
    util::Rng decode_rng(sample.key);
    const auto start = Clock::now();
    const core::Candidate candidate = decoder.decode(genotype, decode_rng);
    decode_cpu_s += seconds_since(start);
    if (!(candidate == sample.outcome.candidate))
      report.fail("replayed decode differs from the GA's candidate");
  }
  const double decode_wall =
      traced.samples.empty()
          ? 0.0
          : decode_cpu_s / static_cast<double>(traced.samples.size()) *
                static_cast<double>(traced.items) /
                static_cast<double>(threads);

  // Checkpoint: rewrite the GA's final snapshot as often as it wrote one.
  const auto writes = static_cast<double>(traced.checkpoint_writes);
  double checkpoint_s = 0.0;
  if (shape.checkpoint) {
    const dse::Checkpoint snapshot = dse::load_checkpoint(checkpoint_path);
    std::vector<double> per_write;
    for (int i = 0; i < 9; ++i) {
      const auto start = Clock::now();
      dse::save_checkpoint(checkpoint_path + ".replay", snapshot, 1);
      per_write.push_back(seconds_since(start));
    }
    checkpoint_s = median(per_write) * writes;
  }

  std::vector<CapturedEvaluation> replay;
  for (const CapturedRequest& sample : traced.samples)
    replay.push_back(sample.outcome);
  const core::Evaluator reference(arch, apps, system.backend);
  replay_core(reference, system.backend, replay, report);

  const SimTotals sim =
      check_safety(system.bench, traced.run.result, args.seed, report);

  const core::CacheStats& cache_stats = traced.cache;
  const double total = traced.run.seconds;
  const double attributed = busy_s + decode_wall + select_s +
                            fitness_s + variation_s + checkpoint_s;
  auto& layers = report.layers;
  layers["dse.executor.busy_s"] = busy_s;
  layers["dse.executor.share"] = busy_s / total;
  layers["dse.executor.items"] = static_cast<double>(traced.items);
  layers["dse.memo.hit_ratio"] =
      1.0 - static_cast<double>(traced.items) /
                static_cast<double>(traced.run.result.evaluations);
  layers["dse.decode.s"] = decode_wall;
  layers["dse.decode.calls"] = static_cast<double>(traced.items);
  layers["dse.spea2_select.s"] = select_s;
  layers["dse.spea2_select.calls"] = static_cast<double>(batches.size());
  layers["dse.spea2_fitness.s"] = fitness_s;
  layers["dse.archive.distinct_ratio"] =
      static_cast<double>(distinct.size()) /
      static_cast<double>(archive.size());
  layers["dse.variation.s"] = variation_s;
  layers["dse.checkpoint.s"] = checkpoint_s;
  layers["dse.checkpoint.bytes"] =
      static_cast<double>(traced.checkpoint_bytes);
  layers["dse.unattributed_s"] = total - attributed;
  layers["core.cache.hit_ratio"] = cache_stats.hit_rate();
  layers["core.cache.insertions"] = static_cast<double>(cache_stats.insertions);
  layers["sim.simulate.s"] = sim.seconds;
  layers["sim.events_per_s"] =
      sim.seconds > 0 ? static_cast<double>(sim.events) / sim.seconds : 0.0;
  layers["trace.overhead_pct"] =
      (median(traced_s) / median(plain_s) - 1.0) * 100.0;

  char line[160];
  report.lines.push_back("Where optimize_s went (traced run, " +
                         std::to_string(threads) + " GA worker thread):");
  const std::pair<const char*, double> rows[] = {
      {"dse.executor (evaluation)", busy_s},
      {"dse.decode (wall est.)", decode_wall},
      {"dse.spea2_select", select_s},
      {"dse.spea2_fitness", fitness_s},
      {"dse.variation", variation_s},
      {"dse.checkpoint", checkpoint_s},
      {"unattributed", total - attributed},
      {"optimize_s (traced)", total}};
  for (const auto& [name, seconds] : rows) {
    std::snprintf(line, sizeof(line), "  %-28s %10.4f s %6.1f %%", name,
                  seconds, 100.0 * seconds / total);
    report.lines.emplace_back(line);
  }
}

}  // namespace

void run_dse(const Args& args, Report& report) {
  const DseShape shape = shape_of(args.workload);
  ScratchDir scratch(args.work_dir, args.workload);
  const std::string checkpoint_path = scratch.path() + "/ga.ckpt";

  // Set-up: parse the benchmark system, build its analysis backend and the
  // optimizer, plus what GeneticOptimizer::run builds before its first
  // evaluation (worker pool, evaluation cache, evaluator, decoder).  Taken
  // in bursts spread over the run; the median is reported.
  const benchmarks::Benchmark generated = shape.system();
  const std::string text = io::to_text(generated.arch, generated.apps);
  std::unique_ptr<DseSystem> system;
  std::vector<double> setup_s;
  const auto set_up = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const auto start = Clock::now();
      system = std::make_unique<DseSystem>(text);
      util::ThreadPool pool(workload_threads());
      core::EvaluationCache cache(dse::GaOptions{}.cache_capacity);
      core::Evaluator::Options options;
      options.cache = &cache;
      options.scenario_pool = &pool;
      const core::Evaluator evaluator(system->bench.arch, system->bench.apps,
                                      system->backend, options);
      const dse::Decoder decoder(system->bench.arch, system->bench.apps);
      setup_s.push_back(seconds_since(start));
    }
  };
  set_up(9);

  if (args.trace) {
    traced_run(args, shape, *system, checkpoint_path, report);
    return;
  }

  // GA runs go in rounds that run every trajectory seed derived from --seed
  // once, until the time budget is spent; there are at least two rounds, so
  // every trajectory is repeated.  A trajectory's wall time depends on how
  // its archive evolves, so figures are taken over whole rounds: every run
  // weighs the trajectories alike, however many rounds the host allows.
  std::vector<std::vector<GaRun>> rounds;
  const auto budget_start = Clock::now();
  double round_s = 0.0;
  do {
    const auto round_start = Clock::now();
    rounds.emplace_back();
    for (std::size_t trajectory = 0; trajectory < shape.trajectories;
         ++trajectory) {
      rounds.back().push_back(timed_run(
          system->optimizer,
          ga_options(shape, trajectory_seed(args.seed, trajectory),
                     checkpoint_path)));
      set_up(9);
    }
    round_s = seconds_since(round_start);
  } while (rounds.size() < 2 ||
           seconds_since(budget_start) + round_s < args.seconds);

  // run_s: the mean over trajectories of each trajectory's median time.
  double run_s = 0.0;
  std::vector<double> optimize_s, generation_ms, best_power, hypervolume;
  for (std::size_t trajectory = 0; trajectory < shape.trajectories;
       ++trajectory) {
    const dse::GaResult& first = rounds.front()[trajectory].result;
    std::vector<double> seconds;
    for (const std::vector<GaRun>& round : rounds) {
      const GaRun& run = round[trajectory];
      seconds.push_back(run.seconds);
      optimize_s.push_back(run.seconds);
      generation_ms.insert(generation_ms.end(), run.generation_ms.begin(),
                           run.generation_ms.end());
      report.attempted += run.result.evaluations;
      if (&run.result != &first && !same_front(first, run.result))
        report.fail("GA front differs between identical repeats");
    }
    run_s += median(seconds) / static_cast<double>(shape.trajectories);
    check_front(*system, first, report);
    report.attempted += check_safety(system->bench, first,
                                     trajectory_seed(args.seed, trajectory),
                                     report)
                            .checks;
    if (!std::isnan(first.best_feasible_power))
      best_power.push_back(first.best_feasible_power);
    hypervolume.push_back(front_hypervolume(first, shape.hv_reference_power));
  }

  const Tail tail =
      tail_of(generation_ms, 2 * shape.trajectories * shape.generations);
  report.metric("setup_s", median(setup_s), "s");
  report.metric("run_s", run_s, "s");
  report.metric("p50_ms", median(generation_ms), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  char comment[96];
  std::string each;
  for (const double seconds : optimize_s) {
    std::snprintf(comment, sizeof(comment), " %.3f", seconds);
    each += comment;
  }
  std::snprintf(comment, sizeof(comment), "p%g, %zu of %zu samples beyond",
                tail.percentile, tail.beyond, generation_ms.size());
  report.note("optimize_s", run_s, "s",
              "= run_s, mean over " + std::to_string(shape.trajectories) +
                  " seeds of each seed's median, " +
                  std::to_string(rounds.size()) + " rounds:" + each);
  report.note("gen_p50_ms", median(generation_ms), "ms", "= p50_ms");
  report.note("gen_tail_ms", tail.value, "ms", comment);
  report.note("best_power_mw", median(best_power), "mW",
              std::to_string(best_power.size()) + " of " +
                  std::to_string(shape.trajectories) +
                  " seeds feasible, median");
  report.note("front_hv", median(hypervolume), "mW.sv",
              "median; reference (" +
                  std::to_string(shape.hv_reference_power) + " mW, 0)");
  report.note("fail_pct",
              100.0 * static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              "%");
}

}  // namespace perfbench
