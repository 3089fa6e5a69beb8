#include "ftmc/hardening/reliability.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace ftmc::hardening {

model::Time scaled_time(const model::Processor& processor,
                        model::Time nominal) {
  if (nominal <= 0) return 0;
  const double scaled =
      std::ceil(static_cast<double>(nominal) * processor.speed_factor);
  if (!model::fits_in_time(scaled))
    throw std::overflow_error(
        "scaled_time: " + std::to_string(nominal) + "us at speed factor " +
        std::to_string(processor.speed_factor) + " on processor '" +
        processor.name + "' overflows model::Time");
  return static_cast<model::Time>(scaled);
}

double execution_failure_probability(const model::Processor& processor,
                                     model::Time nominal) {
  const model::Time exec = scaled_time(processor, nominal);
  if (exec <= 0 || processor.fault_rate <= 0.0) return 0.0;
  return -std::expm1(-processor.fault_rate * static_cast<double>(exec));
}

double majority_failure_probability(std::span<const double> pf) {
  if (pf.empty())
    throw std::invalid_argument("majority_failure_probability: no replicas");
  // dist[c] = P[exactly c replicas correct]  (Poisson-binomial DP).
  std::vector<double> dist(pf.size() + 1, 0.0);
  dist[0] = 1.0;
  for (std::size_t i = 0; i < pf.size(); ++i) {
    const double ok = 1.0 - pf[i];
    for (std::size_t c = i + 1; c > 0; --c)
      dist[c] = dist[c] * pf[i] + dist[c - 1] * ok;
    dist[0] *= pf[i];
  }
  // Correct majority needs strictly more than half the replicas.
  const std::size_t needed = pf.size() / 2 + 1;
  double success = 0.0;
  for (std::size_t c = needed; c <= pf.size(); ++c) success += dist[c];
  return 1.0 - success;
}

double expected_reexecution_count(double pf, int k) noexcept {
  double expected = 1.0;
  double failure_chain = 1.0;
  for (int j = 1; j <= k; ++j) {
    failure_chain *= pf;
    expected += failure_chain;
  }
  return expected;
}

double standby_activation_probability(double pf_primary0,
                                      double pf_primary1) noexcept {
  return 1.0 - (1.0 - pf_primary0) * (1.0 - pf_primary1);
}

double task_failure_probability(const model::Architecture& arch,
                                const model::Task& task,
                                const TaskHardening& decision,
                                model::ProcessorId base_pe) {
  switch (decision.technique) {
    case Technique::kNone:
      return execution_failure_probability(arch.processor(base_pe),
                                           task.wcet);
    case Technique::kReexecution: {
      const double attempt = execution_failure_probability(
          arch.processor(base_pe), task.wcet + task.detection_overhead);
      return std::pow(attempt, decision.reexecutions + 1);
    }
    case Technique::kActiveReplication: {
      std::vector<double> pf;
      pf.reserve(decision.replica_pes.size());
      for (model::ProcessorId pe : decision.replica_pes)
        pf.push_back(
            execution_failure_probability(arch.processor(pe), task.wcet));
      const double replica_failure = majority_failure_probability(pf);
      const double voter_failure = execution_failure_probability(
          arch.processor(decision.voter_pe), task.voting_overhead);
      return 1.0 - (1.0 - replica_failure) * (1.0 - voter_failure);
    }
    case Technique::kPassiveReplication: {
      const double f0 = execution_failure_probability(
          arch.processor(decision.replica_pes[0]), task.wcet);
      const double f1 = execution_failure_probability(
          arch.processor(decision.replica_pes[1]), task.wcet);
      const double fs = execution_failure_probability(
          arch.processor(decision.replica_pes[2]), task.wcet);
      // Success: both primaries correct, or exactly one primary faulty and
      // the tie-breaking standby correct.
      const double success = (1.0 - f0) * (1.0 - f1) +
                             f0 * (1.0 - f1) * (1.0 - fs) +
                             f1 * (1.0 - f0) * (1.0 - fs);
      const double voter_failure = execution_failure_probability(
          arch.processor(decision.voter_pe), task.voting_overhead);
      return 1.0 - success * (1.0 - voter_failure);
    }
  }
  throw std::logic_error("task_failure_probability: bad technique");
}

ReliabilityReport check_reliability(
    const model::Architecture& arch, const model::ApplicationSet& apps,
    const HardeningPlan& plan,
    const std::vector<model::ProcessorId>& base_mapping) {
  if (plan.size() != apps.task_count() ||
      base_mapping.size() != apps.task_count())
    throw std::invalid_argument(
        "check_reliability: plan/mapping size mismatch");

  ReliabilityReport report;
  report.failure_rate.reserve(apps.graph_count());
  report.satisfied.reserve(apps.graph_count());
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    double success = 1.0;
    for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
      const std::size_t flat = apps.flat_index(model::TaskRef{g, v});
      success *= 1.0 - task_failure_probability(arch, graph.task(v),
                                                plan[flat],
                                                base_mapping[flat]);
    }
    const double per_period_failure = 1.0 - success;
    const double rate =
        per_period_failure / static_cast<double>(graph.period());
    report.failure_rate.push_back(rate);
    const bool ok =
        graph.droppable() || rate <= graph.reliability_constraint();
    report.satisfied.push_back(ok);
    report.all_satisfied = report.all_satisfied && ok;
  }
  return report;
}

}  // namespace ftmc::hardening
