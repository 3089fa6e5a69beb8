#include "ftmc/dist/remote_executor.hpp"

#include <chrono>
#include <cmath>
#include <optional>

#include "ftmc/dse/chromosome.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/protocol.hpp"

namespace ftmc::dist {
namespace {

std::string describe_error(const serve::JsonValue& response) {
  const serve::JsonValue* error = response.get("error");
  if (error == nullptr || !error->is_object()) return "malformed error";
  std::string text = error->str_or("code", "internal") + ": " +
                     error->str_or("message", "");
  const std::string detail = error->str_or("detail", "");
  if (!detail.empty()) text += " (" + detail + ")";
  return text;
}

}  // namespace

obs::Json chromosome_json(const dse::Chromosome& chromosome) {
  obs::Json allocation = obs::Json::array();
  for (const std::uint8_t bit : chromosome.allocation)
    allocation.push(obs::Json::uinteger(bit));
  obs::Json keep = obs::Json::array();
  for (const std::uint8_t bit : chromosome.keep)
    keep.push(obs::Json::uinteger(bit));
  obs::Json tasks = obs::Json::array();
  for (const dse::TaskGenes& task : chromosome.tasks) {
    obs::Json row = obs::Json::array();
    row.push(obs::Json::uinteger(static_cast<std::uint64_t>(task.technique)))
        .push(obs::Json::uinteger(task.reexec))
        .push(obs::Json::uinteger(task.active_n))
        .push(obs::Json::uinteger(task.base_pe));
    for (const std::uint16_t replica : task.replica_pe)
      row.push(obs::Json::uinteger(replica));
    row.push(obs::Json::uinteger(task.voter_pe));
    tasks.push(std::move(row));
  }
  return obs::Json::object()
      .set("allocation", std::move(allocation))
      .set("keep", std::move(keep))
      .set("tasks", std::move(tasks));
}

core::Evaluation evaluation_from_json(const serve::JsonValue& result) {
  core::Evaluation evaluation;
  evaluation.mapping_valid = result.bool_or("mapping_valid", false);
  evaluation.reliability_ok = result.bool_or("reliability_ok", false);
  evaluation.normal_schedulable = result.bool_or("normal_schedulable", false);
  evaluation.critical_schedulable =
      result.bool_or("critical_schedulable", false);
  evaluation.power = result.num_or("power", 0.0);
  evaluation.service = result.num_or("service", 0.0);
  evaluation.scenario_count =
      static_cast<std::size_t>(result.u64_or("scenario_count", 0));
  evaluation.scenario_solves =
      static_cast<std::size_t>(result.u64_or("scenario_solves", 0));
  if (const serve::JsonValue* wcrt = result.get("graph_wcrt");
      wcrt != nullptr && wcrt->kind == serve::JsonValue::Kind::kArray) {
    evaluation.graph_wcrt.reserve(wcrt->array.size());
    // Read exactly: diverged graphs carry kUnschedulable (2^61 - 1), which
    // a double would round to 2^61.
    for (const serve::JsonValue& bound : wcrt->array) {
      const std::optional<std::int64_t> exact = bound.as_i64();
      if (!exact)
        throw dse::ExecutorError(
            "worker answered a graph_wcrt entry that is not an integer");
      evaluation.graph_wcrt.push_back(*exact);
    }
  }
  return evaluation;
}

RemoteExecutor::RemoteExecutor(WorkerFleet& fleet, std::size_t worker,
                               std::string system_path, std::uint64_t seed)
    : fleet_(&fleet),
      worker_(worker),
      system_path_(std::move(system_path)),
      seed_(seed) {}

void RemoteExecutor::evaluate(const std::vector<dse::EvalRequest>& requests,
                              std::vector<dse::EvalOutcome>& outcomes) {
  if (requests.empty()) return;
  obs::Json batch = obs::Json::array();
  for (std::size_t index = 0; index < requests.size(); ++index)
    batch.push(obs::Json::object()
                   .set("id", index)
                   .set("method", "evaluate")
                   .set("system", system_path_)
                   .set("params",
                        obs::Json::object()
                            .set("chromosome",
                                 chromosome_json(*requests[index].genotype))
                            .set("seed", seed_)));
  const obs::Json request =
      obs::Json::object()
          .set("v", serve::kRpcVersion)
          .set("id", "executor")
          .set("method", "batch")
          .set("params", obs::Json::object().set("requests", std::move(batch)));

  const auto begin = std::chrono::steady_clock::now();
  const std::string payload = fleet_->call(worker_, request.dump());
  const double total_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - begin)
          .count();

  serve::JsonValue response;
  try {
    response = serve::parse_json(payload);
  } catch (const serve::JsonParseError& error) {
    throw dse::ExecutorError(std::string("worker answered invalid JSON: ") +
                             error.what());
  }
  if (!response.bool_or("ok", false))
    throw dse::ExecutorError("worker refused the batch: " +
                             describe_error(response));
  const serve::JsonValue* result = response.get("result");
  const serve::JsonValue* results =
      result == nullptr ? nullptr : result->get("results");
  if (results == nullptr ||
      results->kind != serve::JsonValue::Kind::kArray ||
      results->array.size() != requests.size())
    throw dse::ExecutorError("worker answered a malformed batch result");

  outcomes.resize(requests.size());
  const double per_item_us =
      total_us / static_cast<double>(requests.size());
  for (std::size_t index = 0; index < requests.size(); ++index) {
    const serve::JsonValue& item = results->array[index];
    if (!item.bool_or("ok", false))
      throw dse::ExecutorError("worker failed evaluation " +
                               std::to_string(index) + ": " +
                               describe_error(item));
    const serve::JsonValue* item_result = item.get("result");
    if (item_result == nullptr)
      throw dse::ExecutorError("worker answered a malformed evaluation");
    dse::EvalOutcome& outcome = outcomes[index];
    outcome.evaluation = evaluation_from_json(*item_result);
    outcome.cache_hit = item_result->bool_or("cache_hit", false);
    outcome.latency_us = per_item_us;
  }
}

}  // namespace ftmc::dist
