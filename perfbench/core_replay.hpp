// Single-thread replay of captured candidate evaluations, timing each layer
// of `Evaluator::evaluate_uncached` by calling into it from outside:
// hardening (reliability check, transform), Algorithm 1 (`McAnalysis`, with
// the program's own `analysis.prepare` / `analysis.solve` spans splitting
// off the WCRT kernel) and the objectives.  Every replayed evaluation must
// equal the one the workload captured, or the layer numbers would describe
// different inputs.
#pragma once

#include <vector>

#include "common.hpp"
#include "ftmc/core/evaluator.hpp"

namespace perfbench {

struct CapturedEvaluation {
  ftmc::core::Candidate candidate;
  ftmc::core::Evaluation evaluation;
  /// Computed fresh (not served from a cache) when it was captured; only
  /// fresh items are timed, all items are checked.
  bool fresh = true;
};

/// Bitwise equality of the fields an Evaluation reports.
bool same_evaluation(const ftmc::core::Evaluation& a,
                     const ftmc::core::Evaluation& b);

/// `backend` is the one `evaluator` was built over.  Fills the core.* /
/// hardening.* / sched.* layer metrics of `report` and records a failure
/// for every captured evaluation the replay disagrees with.
void replay_core(const ftmc::core::Evaluator& evaluator,
                 const ftmc::sched::SchedulingAnalysis& backend,
                 const std::vector<CapturedEvaluation>& items,
                 Report& report);

}  // namespace perfbench
