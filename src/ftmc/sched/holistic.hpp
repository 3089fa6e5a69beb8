// Holistic best/worst-case scheduling analysis (the shipped `sched` backend).
//
// Worst case: per-PE fixed-priority preemptive response-time analysis with
// release jitter (Tindell/Clark-style holistic analysis extended with
// level-i busy windows for multi-job interference), iterated to a global
// fixed point over the precedence graph: a task's latest ready time is the
// latest finish of its predecessors plus communication delay, and interferer
// jitters are their latest ready times.  Iteration starts from the best-case
// solution and only ever raises stored windows (a guarded max).  The
// offset-aware operator is NOT monotone — a later window start can exclude
// whole interfering jobs — so there is no unique least fixed point: the
// result is defined by the evaluation trajectory (flat node order,
// Gauss-Seidel rounds; see prepared_problem.hpp).  Whatever fixed point the
// trajectory reaches is a safe upper bound on any concrete schedule in
// which every task's execution time lies within its ExecBounds.
//
// Best case: interference-free longest-path lower bound on ready/finish
// times (earliest possible start/completion).
//
// Divergence (utilization overload or bound growth past the horizon) marks
// the affected tasks with kUnschedulable and the result as unschedulable.
#pragma once

#include "ftmc/sched/analysis.hpp"

namespace ftmc::sched {

class HolisticAnalysis final : public SchedulingAnalysis {
 public:
  struct Options {
    /// Global fixed-point sweep limit.
    std::size_t max_outer_iterations = 512;
    /// Busy-window / response-time inner fixed-point limit.
    std::size_t max_inner_iterations = 65536;
    /// Divergence horizon as a multiple of the hyperperiod.
    model::Time horizon_hyperperiods = 4;
    /// Offset-aware interference (default): exploits the synchronous
    /// in-phase releases of all graphs to place interferer jobs in absolute
    /// windows [k*T + minStart, k*T + maxFinish] and to exclude same-graph
    /// precedence-related first jobs.  Unconditionally safe (tasks whose
    /// response exceeds their own period fall back to the classical bound
    /// automatically).  Set to false to force the classical
    /// independent-periodic-with-jitter formulation everywhere — much more
    /// pessimistic; exposed for the ablation bench.
    bool precedence_aware = true;
    /// Model the communication fabric as a single shared (preemptable) bus:
    /// every remote channel becomes an explicit message "job" scheduled on
    /// a bus pseudo-resource at its producer's priority, so transfers
    /// contend with each other instead of each enjoying the full bandwidth.
    /// Off by default (the paper's model grants bw_nw to every transfer).
    bool bus_contention = false;
  };

  HolisticAnalysis() : options_() {}
  explicit HolisticAnalysis(Options options) : options_(options) {}

  AnalysisResult analyze(const model::Architecture& arch,
                         const model::ApplicationSet& apps,
                         const model::Mapping& mapping,
                         std::span<const ExecBounds> bounds,
                         std::span<const std::uint32_t> priorities)
      const override;

  /// The amortized kernel: one PreparedProblem shared by every solve()
  /// (see prepared_problem.hpp).
  std::unique_ptr<PreparedAnalysis> prepare(
      const model::Architecture& arch, const model::ApplicationSet& apps,
      const model::Mapping& mapping,
      std::span<const std::uint32_t> priorities) const override;

  const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

}  // namespace ftmc::sched
