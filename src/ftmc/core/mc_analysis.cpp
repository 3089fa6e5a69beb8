#include "ftmc/core/mc_analysis.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <tuple>

#include "ftmc/obs/metrics.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/util/thread_pool.hpp"

namespace ftmc::core {

namespace {

/// Algorithm-1 orchestration counters (flushed with plain adds; nothing the
/// analysis computes ever reads them back).
struct AnalysisCounters {
  obs::Counter prepares{"analysis.prepares"};
  obs::Counter scenarios{"analysis.scenarios"};
  obs::Counter dedup_hits{"analysis.scenario_dedup_hits"};
  obs::Counter solves{"analysis.scenario_solves"};
};

AnalysisCounters& analysis_counters() {
  static AnalysisCounters counters;
  return counters;
}

/// Per-candidate scratch for scenario construction.  Every container is
/// resized (never shrunk) between analyze() calls, so a warmed-up arena
/// builds, dedupes, sorts, solves, and merges all scenarios of a candidate
/// without touching the allocator.
struct ScenarioArena {
  std::vector<sched::ExecBounds> lanes;  ///< triggers x n classified bounds
  std::vector<std::span<const sched::ExecBounds>> lane_views;
  std::vector<sched::ExecBounds> naive_bounds;
  std::vector<sched::AnalysisResult> results;
  std::vector<model::Time> scenario_part;
  std::vector<model::Time> naive_part;
};

/// Arena checkout.  A plain thread_local would be unsafe: a pool worker
/// waiting inside parallel_for drains the shared queue, so a *nested*
/// analyze() can start on this thread while an outer one still has its
/// arena live across the chunk fan-out (the serve batch path does exactly
/// this).  Each concurrent analyze on a thread therefore leases its own
/// arena from a per-thread freelist; the freelist depth is bounded by the
/// nesting depth, so the reuse win is kept without the reentrancy hazard.
std::vector<std::unique_ptr<ScenarioArena>>& arena_freelist() {
  thread_local std::vector<std::unique_ptr<ScenarioArena>> freelist;
  return freelist;
}

class ArenaLease {
 public:
  ArenaLease() {
    auto& freelist = arena_freelist();
    if (freelist.empty()) {
      arena_ = std::make_unique<ScenarioArena>();
    } else {
      arena_ = std::move(freelist.back());
      freelist.pop_back();
    }
  }
  ~ArenaLease() { arena_freelist().push_back(std::move(arena_)); }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  ScenarioArena& operator*() noexcept { return *arena_; }

 private:
  std::unique_ptr<ScenarioArena> arena_;
};

}  // namespace

void validate_drop_set(const model::ApplicationSet& apps,
                       const DropSet& drop) {
  if (drop.size() != apps.graph_count())
    throw std::invalid_argument("DropSet: size does not match graph count");
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    if (drop[g] && !apps.graph(model::GraphId{g}).droppable())
      throw std::invalid_argument("DropSet: graph '" +
                                  apps.graph(model::GraphId{g}).name() +
                                  "' is not droppable");
  }
}

model::Time McAnalysisResult::graph_wcrt(const model::ApplicationSet& apps,
                                         model::GraphId graph) const {
  const model::TaskGraph& g = apps.graph(graph);
  model::Time result = 0;
  for (std::uint32_t sink : g.sinks())
    result = std::max(result, wcrt.at(apps.flat_index({graph.value, sink})));
  return result;
}

namespace {

/// Deadline verdict for one backend run, restricted to non-dropped graphs
/// (dropped applications have no guarantee in the critical state).
bool non_dropped_meet_deadlines(const model::ApplicationSet& apps,
                                const sched::AnalysisResult& result,
                                const DropSet& drop) {
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    if (drop[g]) continue;
    const model::GraphId id{g};
    if (result.graph_wcrt(apps, id) > apps.graph(id).deadline()) return false;
  }
  return true;
}

void merge_wcrt(std::vector<model::Time>& wcrt,
                const sched::AnalysisResult& result) {
  for (std::size_t i = 0; i < wcrt.size(); ++i)
    wcrt[i] = std::max(wcrt[i], result.windows[i].max_finish);
}

}  // namespace

McAnalysisResult McAnalysis::analyze(const model::Architecture& arch,
                                     const hardening::HardenedSystem& system,
                                     const DropSet& drop, Mode mode,
                                     util::ThreadPool* pool) const {
  const model::ApplicationSet& apps = system.apps;
  validate_drop_set(apps, drop);
  const std::size_t n = apps.task_count();
  const auto priorities = sched::assign_priorities(apps, policy_);

  // Every backend run below analyzes the same candidate (mapping +
  // priorities) against a different bounds vector, so the problem build is
  // done once here and amortized over the normal state, the Naive pass, and
  // every transition scenario (prepare-once/solve-N; the fallback adapter
  // keeps third-party backends working unchanged).
  const std::unique_ptr<sched::PreparedAnalysis> prepared = [&] {
    obs::Span span("analysis.prepare");
    analysis_counters().prepares.add(1);
    return backend_->prepare(arch, apps, system.mapping, priorities);
  }();

  auto task_of = [&](std::size_t i) -> const model::Task& {
    return apps.task(apps.task_ref(i));
  };

  McAnalysisResult result;

  // --- Normal state (lines 2-9): passive standbys at [0,0], no faults. ---
  const std::vector<sched::ExecBounds> nominal = nominal_bounds_of(system);
  result.normal = prepared->solve(nominal);
  result.scenario_solves = 1;
  // Divergent tasks carry kUnschedulable finishes, so the deadline check
  // subsumes the global schedulability flag per graph.
  result.normal_schedulable = result.normal.meets_deadlines(apps);
  result.wcrt.assign(n, 0);
  merge_wcrt(result.wcrt, result.normal);

  // The Naive pass: a single pessimistic pass where every task of a dropped
  // application gets a zero BCET (it may silently vanish at any point of
  // the hyperperiod), every hardened task its full critical bounds.  No
  // chronological reasoning — this is the estimator Table 2 calls "Naive".
  auto naive_bounds = [&](std::vector<sched::ExecBounds>& bounds) {
    bounds.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      bounds[i] = critical_bounds(task_of(i), system.info[i]);
      if (drop[apps.task_ref(i).graph]) bounds[i].bcet = 0;
    }
  };

  if (mode == Mode::kNaive) {
    std::vector<sched::ExecBounds> bounds;
    naive_bounds(bounds);
    const auto run = prepared->solve(bounds);
    merge_wcrt(result.wcrt, run);
    result.critical_schedulable = non_dropped_meet_deadlines(apps, run, drop);
    result.scenario_count = 1;
    result.scenario_solves = 2;
    return result;
  }

  // --- Algorithm 1, lines 10-34: one scenario per possible trigger. ------
  //
  // Each scenario bound and the Naive single-pass bound are independently
  // safe, so the reported WCRT takes the pointwise minimum of
  // max-over-scenarios and Naive.  (The backend's offset-aware interference
  // test is not monotone in the input bounds — a later arrival excludes
  // more already-finished jobs — so Naive >= scenario-max is not structural;
  // intersecting the two keeps Algorithm 1 at least as tight as Naive
  // everywhere, which is also how the paper presents it.)
  //
  // The Naive pass and every scenario depend only on the normal-state
  // windows computed above, never on each other, so they form independent
  // work units.  Two optimizations, both observationally invisible:
  //
  //  1. Dedup: a scenario's bounds vector is a pure function of the
  //     trigger's normal-state window (trigger_bounds == critical_bounds),
  //     so triggers whose windows classify every task identically produce
  //     byte-identical backend invocations.  The backend is a deterministic
  //     pure function, so each distinct bounds vector is analyzed once and
  //     its result stands in for all its triggers.
  //  2. Parallelism + batching: the Naive pass runs first, then the unique
  //     scenarios are chunked into solve_many() batches fanned out over the
  //     pool.  Each chunk writes into its own result slots and the merge
  //     below is a pointwise max over integers applied in a fixed order, so
  //     chunk width and thread count are bitwise irrelevant.
  std::vector<std::size_t> triggers;
  for (std::size_t v = 0; v < n; ++v)
    if (system.info[v].triggers_critical_state) triggers.push_back(v);
  result.scenario_count = triggers.size();

  // No trigger means no critical-state transition: the normal-state bound
  // already is the final WCRT and the Naive intersection pass would be
  // discarded unread — skip all of it.
  if (triggers.empty()) return result;

  // Classification of task w in the scenario triggered by v (Algorithm 1
  // lines 12-27).
  auto classify = [&](std::size_t w, std::size_t v, model::Time v_min_start,
                      model::Time v_max_finish) -> sched::ExecBounds {
    if (w == v) {
      // The trigger certainly re-executes / is activated (Eq. (1)).
      return trigger_bounds(task_of(w), system.info[w]);
    }
    const auto& window = result.normal.windows[w];
    if (window.max_finish < v_min_start) {
      // Completed before any fault can occur: normal state (lines 14-17;
      // nominal_bounds already yields [0,0] for passive standbys).
      return nominal_bounds(task_of(w), system.info[w]);
    }
    if (drop[apps.task_ref(w).graph]) {
      if (window.min_start > v_max_finish) {
        // Starts only after the transition completed: certainly dropped
        // (lines 20-21).
        return {0, 0};
      }
      // Transition window: either runs or is dropped (line 23).  The
      // paper writes [0, wcet]; we use the critical WCET so the bound
      // stays safe even for hardened droppable tasks (equal to wcet
      // for the unhardened ones the paper considers).  Later instances
      // whose earliest start lies beyond the completed transition never
      // release (Figure 3, task w2) — the release cutoff carries that
      // chronology into the backend.
      return {0, critical_wcet(task_of(w), system.info[w]), v_max_finish};
    }
    // Non-droppable task possibly in the critical state (line 26).
    return critical_bounds(task_of(w), system.info[w]);
  };

  // One lane per trigger in a contiguous buffer.  Sorting the lane views
  // lexicographically by (wcet, release_cutoff, bcet) makes equal scenarios
  // adjacent, so std::unique leaves each distinct bounds vector once, in an
  // order that clusters similar scenarios into the same solve_many chunk
  // (the batched kernel shares work across similar lanes).
  ArenaLease lease;
  ScenarioArena& arena = *lease;
  arena.lanes.resize(triggers.size() * n);
  arena.lane_views.resize(triggers.size());
  for (std::size_t t = 0; t < triggers.size(); ++t) {
    const std::size_t v = triggers[t];
    const model::Time v_min_start = result.normal.windows[v].min_start;
    const model::Time v_max_finish = result.normal.windows[v].max_finish;
    sched::ExecBounds* const lane = arena.lanes.data() + t * n;
    for (std::size_t w = 0; w < n; ++w)
      lane[w] = classify(w, v, v_min_start, v_max_finish);
    arena.lane_views[t] = std::span<const sched::ExecBounds>(lane, n);
  }
  using LaneView = std::span<const sched::ExecBounds>;
  std::sort(arena.lane_views.begin(), arena.lane_views.end(),
            [](LaneView a, LaneView b) {
              return std::lexicographical_compare(
                  a.begin(), a.end(), b.begin(), b.end(),
                  [](const sched::ExecBounds& x, const sched::ExecBounds& y) {
                    return std::tie(x.wcet, x.release_cutoff, x.bcet) <
                           std::tie(y.wcet, y.release_cutoff, y.bcet);
                  });
            });
  arena.lane_views.erase(
      std::unique(arena.lane_views.begin(), arena.lane_views.end(),
                  [](LaneView a, LaneView b) {
                    return std::equal(a.begin(), a.end(), b.begin(), b.end());
                  }),
      arena.lane_views.end());

  const std::size_t unique = arena.lane_views.size();
  analysis_counters().scenarios.add(triggers.size());
  analysis_counters().dedup_hits.add(triggers.size() - unique);
  result.scenario_solves = 2 + unique;

  arena.naive_part.assign(n, 0);
  {
    obs::Span span("analysis.solve");
    analysis_counters().solves.add(1);
    naive_bounds(arena.naive_bounds);
    const auto run = prepared->solve(arena.naive_bounds);
    for (std::size_t i = 0; i < n; ++i)
      arena.naive_part[i] = run.windows[i].max_finish;
  }

  // Chunked scenario fan-out: the backend's preferred lane width, narrowed
  // so a thread pool still gets one chunk per worker.  Each chunk solves
  // against the shared immutable prepared problem on this worker's
  // thread-local arenas, so the fan-out allocates nothing per scenario in
  // the kernel; the result slots come from this arena too (the batched
  // driver finalizes in place, so warmed slots keep their capacity).
  std::size_t width = std::max<std::size_t>(1, prepared->preferred_batch());
  const std::size_t workers =
      pool != nullptr ? std::max<std::size_t>(1, pool->thread_count()) : 1;
  if (workers > 1)
    width = std::min(width, (unique + workers - 1) / workers);
  const std::size_t chunks = (unique + width - 1) / width;
  arena.results.resize(unique);
  auto run_chunk = [&](std::size_t chunk) {
    obs::Span span("analysis.solve");
    const std::size_t begin = chunk * width;
    const std::size_t count = std::min(width, unique - begin);
    analysis_counters().solves.add(count);
    prepared->solve_many(
        std::span<const std::span<const sched::ExecBounds>>(arena.lane_views)
            .subspan(begin, count),
        std::span<sched::AnalysisResult>(arena.results)
            .subspan(begin, count));
  };
  if (pool != nullptr && chunks > 1) {
    pool->parallel_for(chunks, run_chunk);
  } else {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) run_chunk(chunk);
  }

  {
    arena.scenario_part.assign(n, 0);
    for (std::size_t k = 0; k < unique; ++k) {
      const sched::AnalysisResult& run = arena.results[k];
      for (std::size_t i = 0; i < n; ++i)
        arena.scenario_part[i] =
            std::max(arena.scenario_part[i], run.windows[i].max_finish);
    }
    for (std::size_t i = 0; i < n; ++i)
      result.wcrt[i] = std::max(
          result.wcrt[i],
          std::min(arena.scenario_part[i], arena.naive_part[i]));
  }

  // Critical-state verdict from the combined bound: every non-dropped graph
  // must meet its deadline under the final WCRT.
  result.critical_schedulable = true;
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    if (drop[g]) continue;
    const model::GraphId id{g};
    if (result.graph_wcrt(apps, id) > apps.graph(id).deadline())
      result.critical_schedulable = false;
  }
  return result;
}

}  // namespace ftmc::core
