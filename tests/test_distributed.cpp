// Tests for the distributed campaign stack (src/ftmc/dist/): worker fleet
// lifecycle, the RemoteExecutor ↔ InProcessExecutor bitwise differential,
// crash resilience (SIGKILL a worker mid-campaign), the shared persistent
// evaluation store, and the PROTOCOL.md examples — every documented
// request/response pair is replayed verbatim against a live fixture
// server, so the protocol document cannot drift from the implementation.
//
// These tests fork/exec real `ftmc serve` worker processes from the built
// CLI binary (FTMC_BINARY, a compile definition set in CMakeLists.txt).
#include "ftmc/dist/remote_executor.hpp"
#include "ftmc/dist/worker.hpp"

#include <gtest/gtest.h>

#include <signal.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ftmc/dse/campaign.hpp"
#include "ftmc/dse/executor.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/protocol.hpp"
#include "ftmc/serve/server.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using serve::JsonValue;
using serve::parse_json;

/// The standard fixture system, written where spawned workers can load it.
std::string write_demo_system(const std::string& name) {
  const model::Architecture arch = fixtures::test_arch(2);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const core::Candidate candidate = fixtures::plain_candidate(arch, apps);
  const std::string path =
      ::testing::TempDir() + "ftmc_dist_" + name + ".ftmc";
  std::ofstream out(path);
  io::write_system(out, arch, apps, &candidate);
  return path;
}

struct CampaignRig {
  model::Architecture arch = fixtures::test_arch(2);
  model::ApplicationSet apps = fixtures::small_mixed_apps();
  sched::HolisticAnalysis backend;
};

// A diverged graph's WCRT is kUnschedulable (2^61 - 1); read through a
// double it came back as 2^61, so a remote evaluation of a diverged
// candidate differed from the in-process one.
TEST(RemoteExecutor, EvaluationFromJsonReadsWcrtExactly) {
  const JsonValue result = parse_json(
      R"({"mapping_valid": true, "graph_wcrt": [2305843009213693951, 12]})");
  const core::Evaluation evaluation = dist::evaluation_from_json(result);
  ASSERT_EQ(evaluation.graph_wcrt.size(), 2u);
  EXPECT_EQ(evaluation.graph_wcrt[0], sched::kUnschedulable);
  EXPECT_EQ(evaluation.graph_wcrt[1], 12);
  EXPECT_THROW(dist::evaluation_from_json(
                   parse_json(R"({"graph_wcrt": [1.5]})")),
               dse::ExecutorError);
}

/// A small island campaign: two seeds, epochs of two generations.
dse::CampaignOptions island_options() {
  dse::CampaignOptions options;
  options.ga.population = 10;
  options.ga.offspring = 10;
  options.ga.generations = 6;
  options.ga.threads = 2;
  options.seeds = {11, 22};
  options.migration_every = 2;
  options.migration_size = 2;
  options.retry_backoff_seconds = 0.0;
  return options;
}

/// Remote evaluation for every island: one RemoteExecutor per attempt,
/// carrying the island's own campaign seed (the worker's content-seeded
/// decode must match the GA's).
void use_fleet(dse::CampaignOptions& options, dist::WorkerFleet& fleet,
               const std::string& system_path) {
  const std::vector<std::uint64_t> seeds = options.seeds;
  options.executor_factory = [&fleet, system_path,
                              seeds](std::size_t island) {
    return std::unique_ptr<dse::Executor>(
        std::make_unique<dist::RemoteExecutor>(
            fleet, fleet.assign(island), system_path,
            seeds[island % seeds.size()]));
  };
}

void expect_same_front(const std::vector<dse::Individual>& a,
                       const std::vector<dse::Individual>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objectives, b[i].objectives);
    EXPECT_EQ(a[i].chromosome, b[i].chromosome);
    EXPECT_EQ(a[i].evaluation.power, b[i].evaluation.power);
    EXPECT_EQ(a[i].evaluation.service, b[i].evaluation.service);
  }
}

// --- Worker fleet -----------------------------------------------------------

TEST(Fleet, RejectsNonsenseConfiguration) {
  // No workers at all.
  EXPECT_THROW(dist::WorkerFleet((dist::WorkerFleetOptions())),
               std::invalid_argument);
  // Spawning needs a system to serve.
  dist::WorkerFleetOptions spawn_only;
  spawn_only.spawn = 1;
  EXPECT_THROW(dist::WorkerFleet(std::move(spawn_only)),
               std::invalid_argument);
  // host:port typos fail the campaign instead of being retried.
  for (const char* endpoint : {"nonsense", ":1234", "host:", "host:0",
                               "host:99999"}) {
    dist::WorkerFleetOptions bad;
    bad.hosts = {endpoint};
    EXPECT_THROW(dist::WorkerFleet(std::move(bad)), std::invalid_argument)
        << endpoint;
  }
}

TEST(Fleet, SpawnsWorkersAndRoundTripsVersionedCalls) {
  const std::string path = write_demo_system("spawn");
  dist::WorkerFleetOptions options;
  options.ftmc_binary = FTMC_BINARY;
  options.system_path = path;
  options.spawn = 1;
  dist::WorkerFleet fleet(std::move(options));
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_GT(fleet.pid(0), 0);

  const std::string response = fleet.call(
      0, R"({"v": "ftmc.rpc.v1", "id": "t", "method": "ping"})");
  const JsonValue root = parse_json(response);
  EXPECT_TRUE(root.bool_or("ok", false)) << response;
  EXPECT_EQ(root.str_or("v", ""), serve::kRpcVersion);

  EXPECT_GE(obs::snapshot().value_of("dse.worker.spawns"), 1u);
  EXPECT_GE(obs::snapshot().value_of("dse.worker.calls"), 1u);
}

// --- Remote vs in-process differential --------------------------------------

TEST(Distributed, RemoteCampaignFrontIsBitwiseIdenticalToInProcess) {
  CampaignRig rig;
  const std::string path = write_demo_system("differential");
  const dse::Campaign campaign(rig.arch, rig.apps, rig.backend);

  dse::CampaignOptions local = island_options();
  const dse::CampaignResult in_process = campaign.run(local);
  ASSERT_FALSE(in_process.front.empty());
  EXPECT_GE(in_process.migration_epochs, 1u);

  dist::WorkerFleetOptions fleet_options;
  fleet_options.ftmc_binary = FTMC_BINARY;
  fleet_options.system_path = path;
  fleet_options.spawn = 2;
  dist::WorkerFleet fleet(std::move(fleet_options));
  dse::CampaignOptions remote = island_options();
  use_fleet(remote, fleet, path);
  const dse::CampaignResult distributed = campaign.run(remote);

  expect_same_front(in_process.front, distributed.front);
  EXPECT_EQ(in_process.evaluations, distributed.evaluations);
  EXPECT_EQ(in_process.migration_epochs, distributed.migration_epochs);
  EXPECT_EQ(in_process.migrants, distributed.migrants);
}

TEST(Distributed, SurvivesWorkerSigkillMidCampaign) {
  CampaignRig rig;
  const std::string path = write_demo_system("sigkill");
  const dse::Campaign campaign(rig.arch, rig.apps, rig.backend);

  dse::CampaignOptions reference = island_options();
  const dse::CampaignResult undisturbed = campaign.run(reference);
  ASSERT_FALSE(undisturbed.front.empty());

  dist::WorkerFleetOptions fleet_options;
  fleet_options.ftmc_binary = FTMC_BINARY;
  fleet_options.system_path = path;
  fleet_options.spawn = 2;
  dist::WorkerFleet fleet(std::move(fleet_options));

  dse::CampaignOptions killed_run = island_options();
  use_fleet(killed_run, fleet, path);
  std::atomic<bool> killed{false};
  killed_run.on_generation = [&](std::size_t island,
                                 const dse::GenerationStats& stats) {
    // SIGKILL island 0's worker mid-campaign, exactly once.  The kill lands
    // between generations, so the fleet waitpid-detects the corpse on the
    // island's next call and respawns it before the call goes out — the
    // campaign never sees a failure, it just keeps going.
    if (island == 0 && stats.generation == 3 &&
        !killed.exchange(true) && fleet.pid(0) > 0)
      ::kill(fleet.pid(0), SIGKILL);
  };
  const std::uint64_t lost_before =
      obs::snapshot().value_of("dse.worker.lost");
  const std::uint64_t respawns_before =
      obs::snapshot().value_of("dse.worker.respawns");
  const dse::CampaignResult survived = campaign.run(killed_run);

  EXPECT_TRUE(killed.load());
  expect_same_front(undisturbed.front, survived.front);
  EXPECT_EQ(undisturbed.evaluations, survived.evaluations);
  EXPECT_GE(obs::snapshot().value_of("dse.worker.lost"), lost_before + 1);
  EXPECT_GE(obs::snapshot().value_of("dse.worker.respawns"),
            respawns_before + 1);
}

/// Delegates to a real executor but fails one call with ExecutorError —
/// the transport failure a worker dying *mid-call* produces.
class FlakyExecutor final : public dse::Executor {
 public:
  FlakyExecutor(std::unique_ptr<dse::Executor> inner,
                std::atomic<bool>& tripped)
      : inner_(std::move(inner)), tripped_(&tripped) {}

  const char* name() const noexcept override { return "flaky"; }
  void evaluate(const std::vector<dse::EvalRequest>& requests,
                std::vector<dse::EvalOutcome>& outcomes) override {
    // Fail the third batch: past the first epoch, so the island retries
    // from a real snapshot rather than restarting from scratch.
    if (++calls_ == 3 && !tripped_->exchange(true))
      throw dse::ExecutorError("injected transport failure");
    inner_->evaluate(requests, outcomes);
  }

 private:
  std::unique_ptr<dse::Executor> inner_;
  std::atomic<bool>* tripped_;
  int calls_ = 0;
};

TEST(Distributed, RetriesIslandAfterMidCallTransportFailure) {
  CampaignRig rig;
  const std::string path = write_demo_system("retry");
  const dse::Campaign campaign(rig.arch, rig.apps, rig.backend);

  dse::CampaignOptions reference = island_options();
  const dse::CampaignResult undisturbed = campaign.run(reference);
  ASSERT_FALSE(undisturbed.front.empty());

  dist::WorkerFleetOptions fleet_options;
  fleet_options.ftmc_binary = FTMC_BINARY;
  fleet_options.system_path = path;
  fleet_options.spawn = 1;
  dist::WorkerFleet fleet(std::move(fleet_options));

  dse::CampaignOptions flaky_run = island_options();
  const std::vector<std::uint64_t> seeds = flaky_run.seeds;
  std::atomic<bool> tripped{false};
  flaky_run.executor_factory = [&](std::size_t island) {
    auto remote = std::make_unique<dist::RemoteExecutor>(
        fleet, fleet.assign(island), path, seeds[island % seeds.size()]);
    if (island == 0)
      return std::unique_ptr<dse::Executor>(
          std::make_unique<FlakyExecutor>(std::move(remote), tripped));
    return std::unique_ptr<dse::Executor>(std::move(remote));
  };
  const std::uint64_t retries_before =
      obs::snapshot().value_of("dse.campaign.retries");
  const dse::CampaignResult survived = campaign.run(flaky_run);

  // The injected failure tripped, the island resumed from its snapshot on a
  // fresh executor, and the search trajectory was unaffected.
  EXPECT_TRUE(tripped.load());
  expect_same_front(undisturbed.front, survived.front);
  EXPECT_GE(obs::snapshot().value_of("dse.campaign.retries"),
            retries_before + 1);
  std::size_t retries = 0;
  for (const dse::ShardResult& shard : survived.shards)
    retries += shard.retries;
  EXPECT_GE(retries, 1u);
}

TEST(Distributed, WarmSharedStoreServesEverySecondRunEvaluation) {
  CampaignRig rig;
  const std::string path = write_demo_system("store");
  const std::string cache_dir = ::testing::TempDir() + "ftmc_dist_store";
  std::filesystem::remove_all(cache_dir);  // a previous run's store is warm
  const dse::Campaign campaign(rig.arch, rig.apps, rig.backend);

  auto run_with_fresh_fleet = [&]() {
    dist::WorkerFleetOptions fleet_options;
    fleet_options.ftmc_binary = FTMC_BINARY;
    fleet_options.system_path = path;
    fleet_options.spawn = 2;
    fleet_options.cache_dir = cache_dir;
    dist::WorkerFleet fleet(std::move(fleet_options));
    dse::CampaignOptions options = island_options();
    use_fleet(options, fleet, path);
    const dse::CampaignResult result = campaign.run(options);

    // Per-worker persistent-store traffic for this run (the workers are
    // freshly spawned, so their stats cover exactly this campaign).
    std::uint64_t appends = 0;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const JsonValue stats = parse_json(fleet.call(
          i, R"({"v": "ftmc.rpc.v1", "id": "s", "method": "stats"})"));
      EXPECT_TRUE(stats.bool_or("ok", false));
      const JsonValue* result = stats.get("result");
      const JsonValue* systems =
          result != nullptr ? result->get("systems") : nullptr;
      if (systems == nullptr || systems->array.size() != 1) {
        ADD_FAILURE() << "malformed stats response from worker " << i;
        continue;
      }
      const JsonValue* store = systems->array[0].get("store");
      if (store == nullptr) {
        ADD_FAILURE() << "worker " << i << " has no persistent store";
        continue;
      }
      appends += store->u64_or("appends", 0);
      hits += store->u64_or("hits", 0);
    }
    return std::tuple(result.front.size(), appends, hits);
  };

  const auto [cold_front, cold_appends, cold_hits] = run_with_fresh_fleet();
  EXPECT_GT(cold_front, 0u);
  EXPECT_GT(cold_appends, 0u);

  // Same campaign against fresh workers sharing the now-warm store: every
  // evaluation is served from it, nothing fresh is appended.
  const auto [warm_front, warm_appends, warm_hits] = run_with_fresh_fleet();
  EXPECT_EQ(warm_front, cold_front);
  EXPECT_EQ(warm_appends, 0u);
  EXPECT_GT(warm_hits, 0u);
}

// --- PROTOCOL.md ------------------------------------------------------------

/// Every ```json fence in PROTOCOL.md, in document order.
std::vector<std::string> protocol_json_blocks() {
  std::ifstream in(std::string(FTMC_SOURCE_DIR) + "/docs/PROTOCOL.md");
  EXPECT_TRUE(in.is_open()) << "docs/PROTOCOL.md not found";
  std::vector<std::string> blocks;
  std::string line;
  bool inside = false;
  std::string current;
  while (std::getline(in, line)) {
    if (!inside && line == "```json") {
      inside = true;
      current.clear();
    } else if (inside && line == "```") {
      inside = false;
      blocks.push_back(current);
    } else if (inside) {
      current += line;
      current += '\n';
    }
  }
  EXPECT_FALSE(inside) << "unterminated ```json fence";
  return blocks;
}

TEST(Protocol, DocumentedExamplesStayValid) {
  const std::string path = write_demo_system("protocol");
  serve::ServeOptions options;
  options.system_paths = {path};
  options.threads = 2;
  serve::Server server(std::move(options));

  const std::vector<std::string> blocks = protocol_json_blocks();
  ASSERT_GE(blocks.size(), 2u);
  std::size_t pairs = 0;
  std::string pending_request;
  for (const std::string& block : blocks) {
    const JsonValue value = parse_json(block);  // every example is valid JSON
    ASSERT_TRUE(value.is_object()) << block;
    if (value.get("ok") == nullptr) {
      // A request: the next block is its documented response.
      EXPECT_TRUE(pending_request.empty())
          << "two request examples in a row before: " << block;
      ASSERT_NE(value.get("method"), nullptr) << block;
      pending_request = block;
      continue;
    }
    ASSERT_FALSE(pending_request.empty())
        << "response example without a request before it: " << block;
    const std::string actual_text = server.handle(pending_request);
    pending_request.clear();
    ++pairs;
    const JsonValue actual = parse_json(actual_text);

    EXPECT_EQ(actual.bool_or("ok", false), value.bool_or("ok", false))
        << block << "\nactual: " << actual_text;
    EXPECT_EQ(actual.str_or("v", ""), serve::kRpcVersion) << actual_text;
    if (!value.bool_or("ok", false)) {
      const JsonValue* documented = value.get("error");
      const JsonValue* error = actual.get("error");
      ASSERT_NE(documented, nullptr) << block;
      ASSERT_NE(error, nullptr) << actual_text;
      EXPECT_EQ(error->str_or("code", ""), documented->str_or("code", ""))
          << block << "\nactual: " << actual_text;
      continue;
    }
    // Every documented result key must exist in the live response (values
    // may differ — timings, counts, and paths are illustrative).
    const JsonValue* documented = value.get("result");
    const JsonValue* result = actual.get("result");
    ASSERT_NE(documented, nullptr) << block;
    ASSERT_NE(result, nullptr) << actual_text;
    for (const auto& [key, unused] : documented->object)
      EXPECT_NE(result->get(key), nullptr)
          << "documented result key '" << key
          << "' missing from live response: " << actual_text;
  }
  // The document exercises the whole session: versioning, errors, every
  // method, and the drain.
  EXPECT_GE(pairs, 12u);
}

}  // namespace
