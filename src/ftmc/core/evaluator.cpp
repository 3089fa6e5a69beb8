#include "ftmc/core/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ftmc/core/eval_store.hpp"
#include "ftmc/core/evaluation_cache.hpp"
#include "ftmc/core/serialize.hpp"
#include "ftmc/util/hash.hpp"

namespace ftmc::core {

std::uint64_t candidate_hash(const Candidate& candidate, std::uint64_t seed) {
  util::Fnv1aHasher hasher(seed);
  hasher.feed_bits(candidate.allocation);
  hasher.feed_bits(candidate.drop);
  hasher.feed(static_cast<std::uint64_t>(candidate.plan.size()));
  for (const hardening::TaskHardening& decision : candidate.plan) {
    hasher.feed(static_cast<std::uint8_t>(decision.technique));
    hasher.feed(decision.reexecutions);
    hasher.feed_range(std::span<const model::ProcessorId>(
        decision.replica_pes));
    hasher.feed(decision.voter_pe);
  }
  hasher.feed_range(std::span<const model::ProcessorId>(
      candidate.base_mapping));
  return hasher.digest();
}

Evaluator::Evaluator(const model::Architecture& arch,
                     const model::ApplicationSet& apps,
                     const sched::SchedulingAnalysis& backend)
    : arch_(&arch), apps_(&apps), backend_(&backend), options_() {}

Evaluator::Evaluator(const model::Architecture& arch,
                     const model::ApplicationSet& apps,
                     const sched::SchedulingAnalysis& backend,
                     Options options)
    : arch_(&arch), apps_(&apps), backend_(&backend), options_(options) {}

std::string Evaluator::structural_error(const Candidate& candidate) const {
  if (candidate.allocation.size() != arch_->processor_count())
    return "allocation size mismatch";
  if (candidate.drop.size() != apps_->graph_count())
    return "drop set size mismatch";
  if (candidate.plan.size() != apps_->task_count())
    return "hardening plan size mismatch";
  if (candidate.base_mapping.size() != apps_->task_count())
    return "base mapping size mismatch";
  for (std::uint32_t g = 0; g < apps_->graph_count(); ++g)
    if (candidate.drop[g] && !apps_->graph(model::GraphId{g}).droppable())
      return "non-droppable graph in drop set";
  bool any_allocated = false;
  for (bool allocated : candidate.allocation) any_allocated |= allocated;
  if (!any_allocated) return "no processor allocated";
  for (const model::ProcessorId pe : candidate.base_mapping)
    if (pe.value >= arch_->processor_count()) return "mapped PE out of range";
  try {
    hardening::validate_plan(*apps_, candidate.plan,
                             arch_->processor_count());
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return {};
}

std::uint64_t Evaluator::options_fingerprint() const {
  util::Fnv1aHasher hasher;
  hasher.feed(static_cast<std::uint8_t>(options_.mode));
  hasher.feed(static_cast<std::uint8_t>(options_.policy));
  hasher.feed(options_.infeasibility_penalty);
  hasher.feed(options_.allow_dropping);
  return hasher.digest();
}

std::uint64_t Evaluator::candidate_key(const Candidate& candidate) const {
  return candidate_hash(candidate, options_fingerprint());
}

Evaluation Evaluator::evaluate(const Candidate& candidate) const {
  return evaluate(candidate, nullptr);
}

Evaluation Evaluator::evaluate(const Candidate& candidate,
                               bool* cache_hit) const {
  if (cache_hit != nullptr) *cache_hit = false;
  if (options_.cache == nullptr && options_.store == nullptr)
    return evaluate_uncached(candidate);

  // One encoding per lookup: both layers verify and store these bytes.
  const std::uint64_t key = candidate_key(candidate);
  const std::vector<std::uint8_t> bytes = encode_candidate(candidate);
  if (options_.cache != nullptr) {
    if (std::optional<Evaluation> cached = options_.cache->find(key, bytes)) {
      if (cache_hit != nullptr) *cache_hit = true;
      return *std::move(cached);
    }
  }
  if (options_.store != nullptr) {
    // L2: the persistent store.  A hit warms the in-process L1 so repeated
    // lookups stop paying the decode.
    if (std::optional<Evaluation> stored = options_.store->find(key, bytes)) {
      if (options_.cache != nullptr)
        options_.cache->insert(key, bytes, *stored);
      if (cache_hit != nullptr) *cache_hit = true;
      return *std::move(stored);
    }
  }
  // Concurrent workers evaluating the same fresh candidate may both miss
  // and compute; the duplicate insert is a benign overwrite with an
  // identical value (evaluation is deterministic).
  Evaluation evaluation = evaluate_uncached(candidate);
  if (options_.cache != nullptr)
    options_.cache->insert(key, bytes, evaluation);
  if (options_.store != nullptr) options_.store->put(key, bytes, evaluation);
  return evaluation;
}

Evaluation Evaluator::evaluate_uncached(const Candidate& candidate) const {
  if (const std::string error = structural_error(candidate); !error.empty())
    throw std::invalid_argument("Evaluator::evaluate: " + error);

  Evaluation evaluation;

  // Mapping validity: every PE the candidate actually uses (base mapping,
  // replicas, voters) must be allocated.
  auto allocated = [&](model::ProcessorId pe) {
    return candidate.allocation[pe.value];
  };
  evaluation.mapping_valid = true;
  for (const model::ProcessorId pe : candidate.base_mapping)
    evaluation.mapping_valid &= allocated(pe);
  for (const hardening::TaskHardening& decision : candidate.plan) {
    for (const model::ProcessorId pe : decision.replica_pes)
      evaluation.mapping_valid &= allocated(pe);
    if (decision.technique == hardening::Technique::kActiveReplication ||
        decision.technique == hardening::Technique::kPassiveReplication)
      evaluation.mapping_valid &= allocated(decision.voter_pe);
  }

  const hardening::ReliabilityReport reliability = hardening::check_reliability(
      *arch_, *apps_, candidate.plan, candidate.base_mapping);
  evaluation.reliability_ok = reliability.all_satisfied;

  const hardening::HardenedSystem system = hardening::apply_hardening(
      *apps_, candidate.plan, candidate.base_mapping,
      arch_->processor_count());

  DropSet drop = candidate.drop;
  if (!options_.allow_dropping)
    drop.assign(apps_->graph_count(), false);

  const McAnalysis analysis(*backend_, options_.policy);
  const McAnalysisResult verdict = analysis.analyze(
      *arch_, system, drop, options_.mode, options_.scenario_pool);
  evaluation.normal_schedulable = verdict.normal_schedulable;
  evaluation.critical_schedulable = verdict.critical_schedulable;
  evaluation.scenario_count = verdict.scenario_count;
  evaluation.scenario_solves = verdict.scenario_solves;
  evaluation.graph_wcrt.reserve(system.apps.graph_count());
  for (std::uint32_t g = 0; g < system.apps.graph_count(); ++g) {
    // Dropped applications carry no critical-state guarantee; report their
    // normal-state bound (the guarantee they do have).
    evaluation.graph_wcrt.push_back(
        drop[g] ? verdict.normal.graph_wcrt(system.apps, model::GraphId{g})
                : verdict.graph_wcrt(system.apps, model::GraphId{g}));
  }

  // Power needs a consistent allocation even for mapping-invalid
  // candidates; widen to the PEs actually used so the objective stays
  // defined (the penalty dominates anyway).
  Allocation power_allocation = candidate.allocation;
  for (const model::ProcessorId pe : system.mapping.flat())
    power_allocation[pe.value] = true;
  evaluation.power =
      expected_power(*arch_, system, power_allocation, &drop);
  evaluation.service = service_value(*apps_, drop);

  if (!evaluation.feasible()) {
    // Graded penalty: infeasible candidates are pushed far above any
    // feasible power, but remain ordered by how badly they violate the
    // constraints, giving the GA a gradient towards feasibility (a flat
    // penalty makes every infeasible candidate equivalent and the search
    // blind until the first feasible point appears).
    double violation = 0.0;
    for (std::uint32_t g = 0; g < system.apps.graph_count(); ++g) {
      const model::GraphId id{g};
      const model::TaskGraph& graph = system.apps.graph(id);
      const model::Time deadline = graph.deadline();
      // Dropped applications only owe their deadline in the normal state.
      const model::Time wcrt = drop[g]
                                   ? verdict.normal.graph_wcrt(system.apps, id)
                                   : verdict.graph_wcrt(system.apps, id);
      if (wcrt <= deadline) continue;
      // Continuous miss measure: partial overrun plus the fraction of the
      // graph's tasks already past the deadline — a mapping that fixes some
      // tasks of a still-failing graph must score better than one that
      // fixes none, or the GA sees a plateau.
      std::size_t late = 0;
      for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
        const std::size_t flat = system.apps.flat_index({g, v});
        const model::Time bound = drop[g]
                                      ? verdict.normal.windows[flat].max_finish
                                      : verdict.wcrt[flat];
        if (bound > deadline) ++late;
      }
      violation += 0.5 +
                   static_cast<double>(late) /
                       static_cast<double>(graph.task_count()) +
                   std::min(2.0, static_cast<double>(wcrt - deadline) /
                                     static_cast<double>(deadline));
    }
    for (std::uint32_t g = 0; g < reliability.failure_rate.size(); ++g) {
      if (reliability.satisfied[g]) continue;
      const double bound =
          apps_->graph(model::GraphId{g}).reliability_constraint();
      const double ratio = reliability.failure_rate[g] / bound;
      violation += std::min(10.0, 1.0 + std::log10(std::max(ratio, 1.0)));
    }
    if (!evaluation.mapping_valid) violation += 5.0;
    evaluation.power += options_.infeasibility_penalty * (1.0 + violation);
  }
  return evaluation;
}

}  // namespace ftmc::core
