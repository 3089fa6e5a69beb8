// Mixed-criticality-aware WCRT analysis — Algorithm 1 of the paper.
//
// The hardening techniques make a single-pass analysis either unsafe or very
// pessimistic: passive replicas and re-executed jobs may or may not run, and
// droppable applications are detached *only after* the system transitions to
// the critical state.  Algorithm 1 therefore analyzes the normal (fault-free)
// state once, and then one scenario per possible state-transition trigger v
// (every re-executable task and every passive standby), classifying each
// other task w by its position relative to the transition window
// [minStart_v, maxFinish_v] taken from the normal-state analysis:
//
//   maxFinish_w < minStart_v       -> w runs fully in the normal state
//   minStart_w > maxFinish_v, w droppable and selected to drop
//                                  -> w is certainly dropped: [0, 0]
//   otherwise, w droppable+dropped -> either runs or is dropped: [0, wcet]
//   otherwise (non-droppable)      -> critical bounds (Eq. (1) for
//                                     re-executables, [0, wcet] standbys)
//
// The per-task WCRT bound is the maximum finish time over the normal state
// and all transition scenarios.
//
// Two alternative estimators from the evaluation (Section 5.1) are exposed
// through Mode:
//   kNaive     single analysis, all droppable-and-dropped tasks at
//              [0, wcet], all hardened tasks at critical bounds — safe but
//              pessimistic (no chronological information).
//   kProposed  Algorithm 1.
// (The unsafe "Adhoc" trace estimator of Table 2 is a simulator artifact;
// see ftmc/sim/adhoc.hpp.)
#pragma once

#include <vector>

#include "ftmc/core/exec_model.hpp"
#include "ftmc/hardening/hardening.hpp"
#include "ftmc/sched/analysis.hpp"
#include "ftmc/sched/priority.hpp"

namespace ftmc::util {
class ThreadPool;
}  // namespace ftmc::util

namespace ftmc::core {

/// Which applications are dropped in the critical state (T_d): one flag per
/// graph of the *original* set; may only be set for droppable graphs.
using DropSet = std::vector<bool>;

/// Validates a drop set against an application set (size, droppability).
void validate_drop_set(const model::ApplicationSet& apps, const DropSet& drop);

struct McAnalysisResult {
  /// Safe WCRT bound per task of T' (flat order): max finish over the
  /// normal state and every transition scenario.
  std::vector<model::Time> wcrt;
  /// Normal-state windows (inputs to the scenario classification).
  sched::AnalysisResult normal;
  /// All graphs meet deadlines in the normal state.
  bool normal_schedulable = true;
  /// In every transition scenario, every non-dropped graph meets deadlines.
  bool critical_schedulable = true;
  /// Number of transition scenarios analyzed (trigger tasks).
  std::size_t scenario_count = 0;
  /// Backend fixed-point solves actually run: the normal state, the Naive
  /// intersection pass, and one per *unique* scenario after dedup.  A pure
  /// function of the inputs (unlike wall-clock throughput), so it is safe
  /// to surface through the deterministic DSE telemetry.
  std::size_t scenario_solves = 0;

  bool schedulable() const noexcept {
    return normal_schedulable && critical_schedulable;
  }

  /// WCRT bound of a graph: latest bound over its sink tasks.
  model::Time graph_wcrt(const model::ApplicationSet& apps,
                         model::GraphId graph) const;
};

class McAnalysis {
 public:
  enum class Mode { kProposed, kNaive };

  /// @param backend  the pluggable `sched` analysis; must outlive this.
  explicit McAnalysis(
      const sched::SchedulingAnalysis& backend,
      sched::PriorityPolicy policy =
          sched::PriorityPolicy::kRateMonotonic)
      : backend_(&backend), policy_(policy) {}

  /// Runs the analysis on a hardened system with drop set `drop` (aligned
  /// with the graphs of `system.apps`, which the transform keeps aligned
  /// with the original set).
  ///
  /// The backend problem (flat graph, interferer lists, relation matrix) is
  /// prepared once per call and shared — immutably — by the normal state,
  /// the Naive pass, and every transition scenario, which differ only in
  /// their bounds vectors (SchedulingAnalysis::prepare / solve).
  ///
  /// When `pool` is non-null the independent transition scenarios (and the
  /// Naive intersection pass) of Algorithm 1 run concurrently on it; the
  /// result is bitwise identical to the sequential path — each scenario is
  /// self-contained and the merge is a pointwise max over integers, applied
  /// in a fixed order.  The pool may be shared with candidate-level DSE
  /// workers (ThreadPool::parallel_for is nesting-safe).
  McAnalysisResult analyze(const model::Architecture& arch,
                           const hardening::HardenedSystem& system,
                           const DropSet& drop, Mode mode = Mode::kProposed,
                           util::ThreadPool* pool = nullptr) const;

 private:
  const sched::SchedulingAnalysis* backend_;
  sched::PriorityPolicy policy_;
};

}  // namespace ftmc::core
