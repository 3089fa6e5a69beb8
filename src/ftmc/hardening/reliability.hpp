// Reliability analysis against the per-application constraint f_t.
//
// Transient faults arrive on each PE as a Poisson process with constant rate
// lambda_p per microsecond (Section 2.1, after [11][12]); an execution of
// length e on PE p therefore fails with probability 1 - exp(-lambda_p * e).
// Hardening changes the per-task failure probability:
//   re-execution(k):  all k+1 attempts must fail,
//   active n-replication: no correct majority among the replicas (and the
//     voter itself must not fail),
//   passive replication (2 primaries + 1 standby): both primaries fail, or
//     one primary and the standby fail.
// Failures of distinct executions are independent, and faulty results are
// assumed pairwise distinguishable (standard fail-signal/diverse-value
// assumption), so two faulty replicas never form a bogus majority but can
// destroy a real one.
//
// Per application: one instance per period fails if any of its tasks fails;
// the failure *rate* (failures per microsecond) is the per-period failure
// probability divided by the period, and must not exceed f_t.
#pragma once

#include <span>
#include <vector>

#include "ftmc/hardening/hardening.hpp"
#include "ftmc/model/architecture.hpp"

namespace ftmc::hardening {

/// Execution time of a nominal duration on a concrete PE.  Throws
/// std::overflow_error when the scaled time does not fit in model::Time.
model::Time scaled_time(const model::Processor& processor,
                        model::Time nominal);

/// P[single execution of `nominal` time units on `processor` is hit by at
/// least one transient fault].
double execution_failure_probability(const model::Processor& processor,
                                     model::Time nominal);

/// P[no correct majority] for replicas with individual failure
/// probabilities `pf` (Poisson-binomial over <= ~8 replicas).  A majority
/// requires strictly more than half of the replicas to be correct.
double majority_failure_probability(std::span<const double> pf);

/// Expected number of executions of a task re-executable k times whose
/// single attempt fails with probability pf: 1 + pf + pf^2 + ... + pf^k.
double expected_reexecution_count(double pf, int k) noexcept;

/// P[the passive standby is activated] = P[primaries disagree].
double standby_activation_probability(double pf_primary0,
                                      double pf_primary1) noexcept;

/// Per-period failure probability of one (possibly hardened) task.
double task_failure_probability(const model::Architecture& arch,
                                const model::Task& task,
                                const TaskHardening& decision,
                                model::ProcessorId base_pe);

/// Reliability verdict for a full hardening/mapping decision.
struct ReliabilityReport {
  /// Failures per microsecond, per graph (0 for fault-free).
  std::vector<double> failure_rate;
  /// Constraint verdict per graph (droppable graphs are always satisfied).
  std::vector<bool> satisfied;
  bool all_satisfied = true;
};

/// Evaluates every graph of `apps` under `plan` and `base_mapping` (both in
/// flat order over the *original* application set).
ReliabilityReport check_reliability(
    const model::Architecture& arch, const model::ApplicationSet& apps,
    const HardeningPlan& plan,
    const std::vector<model::ProcessorId>& base_mapping);

}  // namespace ftmc::hardening
