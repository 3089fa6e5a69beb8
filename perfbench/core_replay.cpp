#include "core_replay.hpp"

#include <map>
#include <sstream>

#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/core/objectives.hpp"
#include "ftmc/hardening/hardening.hpp"
#include "ftmc/hardening/reliability.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/serve/json_parse.hpp"

namespace perfbench {

using namespace ftmc;

bool same_evaluation(const core::Evaluation& a, const core::Evaluation& b) {
  return a.mapping_valid == b.mapping_valid &&
         a.reliability_ok == b.reliability_ok &&
         a.normal_schedulable == b.normal_schedulable &&
         a.critical_schedulable == b.critical_schedulable &&
         a.power == b.power && a.service == b.service &&
         a.scenario_count == b.scenario_count &&
         a.scenario_solves == b.scenario_solves &&
         a.graph_wcrt == b.graph_wcrt;
}

namespace {

/// Total seconds per span name over the recorded trace (begin/end pairs
/// matched per thread, nested spans each counted in full).
std::map<std::string, double> span_seconds() {
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const serve::JsonValue trace = serve::parse_json(out.str());
  std::map<std::string, double> totals;
  std::map<double, std::vector<double>> open;  // tid -> begin timestamps
  const serve::JsonValue* events = trace.get("traceEvents");
  if (events == nullptr) return totals;
  for (const serve::JsonValue& event : events->array) {
    const std::string phase = event.str_or("ph", "");
    const double tid = event.num_or("tid", 0);
    if (phase == "B") {
      open[tid].push_back(event.num_or("ts", 0));
    } else if (phase == "E" && !open[tid].empty()) {
      totals[event.str_or("name", "")] +=
          (event.num_or("ts", 0) - open[tid].back()) * 1e-6;
      open[tid].pop_back();
    }
  }
  return totals;
}

}  // namespace

void replay_core(const core::Evaluator& evaluator,
                 const sched::SchedulingAnalysis& backend,
                 const std::vector<CapturedEvaluation>& items,
                 Report& report) {
  const model::Architecture& arch = evaluator.architecture();
  const model::ApplicationSet& apps = evaluator.applications();
  const core::Evaluator::Options& options = evaluator.options();
  const core::McAnalysis analysis(backend, options.policy);

  double evaluate_s = 0, reliability_s = 0, apply_s = 0, analysis_s = 0,
         objectives_s = 0;
  std::vector<double> evaluate_us;
  std::size_t scenarios = 0, solves = 0;

  obs::clear_trace();
  for (const CapturedEvaluation& item : items) {
    auto start = Clock::now();
    const core::Evaluation replayed =
        evaluator.evaluate_uncached(item.candidate);
    const double elapsed = seconds_since(start);
    if (!same_evaluation(replayed, item.evaluation))
      report.fail("replayed evaluate_uncached differs from the captured "
                  "evaluation (power " +
                  std::to_string(replayed.power) + " vs " +
                  std::to_string(item.evaluation.power) + ")");
    if (!item.fresh) continue;
    evaluate_s += elapsed;
    evaluate_us.push_back(elapsed * 1e6);
    scenarios += replayed.scenario_count;
    solves += replayed.scenario_solves;

    // The same pipeline again, one layer call at a time.
    const core::Candidate& candidate = item.candidate;
    start = Clock::now();
    const hardening::ReliabilityReport reliability =
        hardening::check_reliability(arch, apps, candidate.plan,
                                     candidate.base_mapping);
    reliability_s += seconds_since(start);

    start = Clock::now();
    const hardening::HardenedSystem system = hardening::apply_hardening(
        apps, candidate.plan, candidate.base_mapping, arch.processor_count());
    apply_s += seconds_since(start);

    core::DropSet drop = candidate.drop;
    if (!options.allow_dropping) drop.assign(apps.graph_count(), false);
    obs::enable_tracing(1u << 18);
    start = Clock::now();
    const core::McAnalysisResult verdict =
        analysis.analyze(arch, system, drop, options.mode, nullptr);
    analysis_s += seconds_since(start);
    obs::disable_tracing();

    start = Clock::now();
    core::Allocation allocation = candidate.allocation;
    for (const model::ProcessorId pe : system.mapping.flat())
      allocation[pe.value] = true;
    const double power = core::expected_power(arch, system, allocation, &drop);
    const double service = core::service_value(apps, drop);
    objectives_s += seconds_since(start);

    if (verdict.scenario_count != replayed.scenario_count ||
        reliability.all_satisfied != replayed.reliability_ok ||
        (replayed.feasible() &&
         (power != replayed.power || service != replayed.service)))
      report.fail("layer-by-layer replay disagrees with evaluate_uncached");
  }
  const std::map<std::string, double> spans = span_seconds();
  obs::clear_trace();
  const auto span = [&](const char* name) {
    const auto found = spans.find(name);
    return found == spans.end() ? 0.0 : found->second;
  };

  auto& layers = report.layers;
  layers["core.evaluate.s"] = evaluate_s;
  layers["core.evaluate.p50_us"] = median(evaluate_us);
  layers["core.evaluate.calls"] = static_cast<double>(evaluate_us.size());
  layers["hardening.reliability.s"] = reliability_s;
  layers["hardening.apply.s"] = apply_s;
  layers["core.mc_analysis.s"] = analysis_s;
  layers["sched.prepare.s"] = span("analysis.prepare");
  layers["sched.solve.s"] = span("analysis.solve");
  layers["core.mc_analysis.self_s"] =
      analysis_s - layers["sched.prepare.s"] - layers["sched.solve.s"];
  layers["core.mc_analysis.scenarios"] = static_cast<double>(scenarios);
  layers["sched.solves"] = static_cast<double>(solves);
  layers["core.objectives.s"] = objectives_s;
}

}  // namespace perfbench
