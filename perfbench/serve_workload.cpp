// serve-worker-dtlarge: an in-process `serve::Server` on loopback TCP, with
// a persistent store and the DT-large system (plus a candidate block)
// resident, driven from this process over two connections.
//
// The request mix is what a DSE worker and its users send: `evaluate` of a
// GA genotype (a seeded share repeats an earlier genotype and is served
// from the L1 cache; the rest are fresh: decode, Algorithm 1, L1 insert and
// store append), `batch` of one generation's fresh genotypes (the
// dist::RemoteExecutor shape, and the heaviest request) and `simulate`.
// SPEA2 is absent.
//
// Phases: an open-loop run at a fixed reference rate (latency, timed from
// each request's due send time), a fixed script sent back to back on one
// connection (saturated throughput) and an open-loop rate ladder (highest rate whose p99 meets
// the latency limit without a growing backlog).  Every response is checked
// against an in-process decode + evaluate_uncached or Monte-Carlo run.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core_replay.hpp"
#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/dist/remote_executor.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sched/priority.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/protocol.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/sim/monte_carlo.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ftmc;

namespace {

/// Server worker threads, and client connections.  With one worker thread
/// the server fans nothing out: each connection's session thread runs its
/// own requests, batches included, so at most two requests run at once.
constexpr std::size_t kServerThreads = 1;
constexpr std::size_t kConnections = 2;
/// Genotypes per `batch`: what dist::RemoteExecutor ships for one
/// generation of dse-eval-dtlarge, namely that generation's memo misses
/// (10,076 items over 101 executor calls).  All are fresh genotypes, as
/// memo misses are.
constexpr std::size_t kBatchItems = 100;
/// Requests of each kind in every block of 100 consecutive requests: the
/// batches evenly spaced, the evaluates and simulates (the rest) in between
/// in a seeded order.  See README.md for why these values were chosen.
constexpr std::size_t kMixBlock = 100;
constexpr std::size_t kBatchesPerBlock = 3;
constexpr std::size_t kEvaluatesPerBlock = 77;
/// Share of `evaluate` requests that repeat a genotype sent before.
constexpr double kRepeatShare = 0.3;
constexpr double kReferenceRate = 100.0;   ///< requests/s
/// p99 limit of the ladder: about three times the p99 at the reference
/// rate, which is a batch.
constexpr double kLatencyLimitMs = 100.0;
constexpr std::size_t kSimProfiles = 500;
constexpr std::size_t kSimSeeds = 8;  ///< distinct simulate requests
/// Request ids are phase * kIdStride + index, so access-log records name
/// the phase they belong to.
constexpr std::uint64_t kIdStride = 1000000;
/// Closed-loop scripts (and reference-rate windows) per run, and requests
/// per script.
constexpr std::size_t kScripts = 7;
constexpr std::size_t kScriptRequests = 300;
constexpr std::size_t kProbeRequests = 1000;  ///< per ladder rung

std::size_t connections() { return kConnections; }

// --- Requests ---------------------------------------------------------------

struct Request {
  enum class Kind { kEvaluate, kBatch, kSimulate } kind = Kind::kEvaluate;
  std::vector<std::size_t> genotypes;  ///< indices into RequestMix::genotypes
  std::uint64_t sim_seed = 0;
  std::string payload;
};

/// Seeded request streams over a shared genotype table.  Each phase draws
/// from its own stream, so a phase's requests depend only on the seed and
/// the phase, never on what earlier phases measured.
class RequestMix {
 public:
  RequestMix(const dse::ChromosomeShape& shape, std::uint64_t seed)
      : shape_(shape), seed_(seed) {}

  std::vector<Request> phase(std::uint64_t phase_id, std::size_t count) {
    util::Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + phase_id);
    const auto fresh = [&] {
      genotypes.push_back(dse::random_chromosome(shape_, rng));
      return genotypes.size() - 1;
    };
    std::vector<std::size_t> evaluated;  // fresh `evaluate` genotypes
    std::vector<Request::Kind> block;
    std::vector<Request> requests(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (i % kMixBlock == 0) {
        block.assign(kMixBlock - kBatchesPerBlock, Request::Kind::kSimulate);
        std::fill_n(block.begin(), kEvaluatesPerBlock,
                    Request::Kind::kEvaluate);
        rng.shuffle(block);
        for (std::size_t b = 0; b < kBatchesPerBlock; ++b)
          block.insert(block.begin() + b * (kMixBlock / kBatchesPerBlock),
                       Request::Kind::kBatch);
      }
      Request& request = requests[i];
      request.kind = block[i % kMixBlock];
      obs::Json envelope = obs::Json::object()
                               .set("v", serve::kRpcVersion)
                               .set("id", phase_id * kIdStride + i);
      if (request.kind == Request::Kind::kEvaluate) {
        if (!evaluated.empty() && rng.chance(kRepeatShare)) {
          request.genotypes.push_back(
              evaluated[rng.index(evaluated.size())]);
        } else {
          evaluated.push_back(fresh());
          request.genotypes.push_back(evaluated.back());
        }
        envelope.set("method", "evaluate")
            .set("params", evaluate_params(request.genotypes.back()));
      } else if (request.kind == Request::Kind::kBatch) {
        obs::Json items = obs::Json::array();
        for (std::size_t k = 0; k < kBatchItems; ++k) {
          request.genotypes.push_back(fresh());
          items.push(obs::Json::object()
                         .set("id", k)
                         .set("method", "evaluate")
                         .set("params",
                              evaluate_params(request.genotypes.back())));
        }
        envelope.set("method", "batch")
            .set("params",
                 obs::Json::object().set("requests", std::move(items)));
      } else {
        request.sim_seed = 1 + rng.index(kSimSeeds);
        envelope.set("method", "simulate")
            .set("params", obs::Json::object()
                               .set("profiles", kSimProfiles)
                               .set("fault_prob", "0.3")
                               .set("seed", request.sim_seed));
      }
      request.payload = envelope.dump();
    }
    return requests;
  }

  std::uint64_t seed() const { return seed_; }

  std::vector<dse::Chromosome> genotypes;

 private:
  obs::Json evaluate_params(std::size_t genotype) const {
    return obs::Json::object()
        .set("chromosome", dist::chromosome_json(genotypes[genotype]))
        .set("seed", seed_);
  }

  dse::ChromosomeShape shape_;
  std::uint64_t seed_;
};

// --- Client -----------------------------------------------------------------

class Connection {
 public:
  explicit Connection(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                             sizeof(address)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to the benchmark server");
    }
    // As dist::RemoteExecutor's connections do.
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& payload) { serve::write_frame(fd_, payload); }
  /// Next response, or empty when the server hung up.
  std::string receive() {
    std::string payload;
    const auto fill = [this] {
      if (pos_ < buffer_.size()) return true;
      buffer_.resize(1 << 16);
      const ssize_t n = ::read(fd_, buffer_.data(), buffer_.size());
      // The server sets no TCP_NODELAY: while a response is unacknowledged
      // it holds back the next one, so a delayed ACK here would add up to
      // a request interval (or 40 ms) to every response after a batch.
      const int one = 1;
      (void)::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      buffer_.resize(n > 0 ? static_cast<std::size_t>(n) : 0);
      pos_ = 0;
      return n > 0;
    };
    std::size_t length = 0;
    for (;;) {  // "<length>\n<payload>", as serve::frame writes it
      if (!fill()) return "";
      const char c = buffer_[pos_++];
      if (c == '\n') break;
      if (c < '0' || c > '9') return "";
      length = 10 * length + static_cast<std::size_t>(c - '0');
    }
    while (payload.size() < length) {
      if (!fill()) return "";
      const std::size_t take =
          std::min(length - payload.size(), buffer_.size() - pos_);
      payload.append(buffer_.data() + pos_, take);
      pos_ += take;
    }
    return payload;
  }
  std::string call(const std::string& payload) {
    send(payload);
    return receive();
  }

 private:
  int fd_;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;
};

struct PhaseResult {
  std::vector<std::string> responses;
  /// Completion minus due time (open loop) or minus the script's start.
  std::vector<double> latency_ms;
  std::vector<double> send_lag_ms;
  double wall_s = 0.0;
};

/// Open loop: request i is due at start + i / rate on connection
/// i % connections, sent when due whatever the server's progress, and
/// timed from its due time.
PhaseResult open_loop(std::uint16_t port, const std::vector<Request>& requests,
                      double rate) {
  const std::size_t lanes = connections();
  PhaseResult result;
  result.responses.resize(requests.size());
  result.latency_ms.assign(requests.size(),
                           std::numeric_limits<double>::infinity());
  result.send_lag_ms.assign(requests.size(), 0.0);
  std::vector<std::unique_ptr<Connection>> links;
  for (std::size_t c = 0; c < lanes; ++c)
    links.push_back(std::make_unique<Connection>(port));
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate));
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < lanes; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = c; i < requests.size(); i += lanes) {
          std::this_thread::sleep_until(due(i));
          result.send_lag_ms[i] =
              std::chrono::duration<double, std::milli>(Clock::now() - due(i))
                  .count();
          links[c]->send(requests[i].payload);
        }
      } catch (const std::exception&) {
        // The receiver sees the hang-up; unsent requests stay failed.
      }
    });
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < requests.size(); i += lanes) {
        std::string response = links[c]->receive();
        if (response.empty()) return;
        result.latency_ms[i] =
            std::chrono::duration<double, std::milli>(Clock::now() - due(i))
                .count();
        result.responses[i] = std::move(response);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_s = seconds_since(start);
  return result;
}

/// A script: every request sent back to back on one connection while the
/// answers stream back.  The server always finds the next request buffered,
/// so it runs them one after another without waiting for the client, and
/// the wall time is the server's service time for the whole script rather
/// than round trips and thread wake-ups on a shared host.
PhaseResult script(std::uint16_t port, const std::vector<Request>& requests) {
  PhaseResult result;
  result.responses.resize(requests.size());
  result.latency_ms.assign(requests.size(),
                           std::numeric_limits<double>::infinity());
  Connection link(port);
  const auto start = Clock::now();
  std::thread sender([&] {
    try {
      for (const Request& request : requests) link.send(request.payload);
    } catch (const std::exception&) {
      // The receiver sees the hang-up; unanswered requests stay failed.
    }
  });
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::string response = link.receive();
    if (response.empty()) break;
    result.latency_ms[i] =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    result.responses[i] = std::move(response);
  }
  result.wall_s = seconds_since(start);
  sender.join();
  return result;
}

// --- Server -----------------------------------------------------------------

/// A server on an ephemeral loopback port, serving on its own thread until
/// destroyed.
class BenchServer {
 public:
  BenchServer(const std::string& system_path, const std::string& cache_dir,
              const std::string& access_log)
      : server_(options(system_path, cache_dir, access_log)),
        thread_([this] { (void)server_.serve_tcp(0, ""); }) {
    while (server_.bound_port() == 0 && !stop_.load())
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ~BenchServer() {
    stop_.store(true);
    thread_.join();
  }
  BenchServer(const BenchServer&) = delete;
  BenchServer& operator=(const BenchServer&) = delete;

  std::uint16_t port() const { return server_.bound_port(); }
  const serve::ServeStats& stats() const { return server_.stats(); }

 private:
  serve::ServeOptions options(const std::string& system_path,
                              const std::string& cache_dir,
                              const std::string& access_log) {
    serve::ServeOptions options;
    options.system_paths = {system_path};
    options.threads = kServerThreads;
    options.cache_dir = cache_dir;
    options.max_connections = connections();
    options.access_log = access_log;
    options.stop_requested = [this] { return stop_.load(); };
    return options;
  }

  std::atomic<bool> stop_{false};
  serve::Server server_;
  std::thread thread_;
};

/// DT-large plus a fixed candidate block (the resident system `simulate`
/// runs), written once per run.
std::string write_system(const std::string& dir) {
  const benchmarks::Benchmark bench = benchmarks::dt_large_benchmark();
  const dse::Decoder decoder(bench.arch, bench.apps);
  util::Rng rng(1);
  dse::Chromosome genotype =
      dse::random_chromosome(decoder.shape(), rng);
  util::Rng decode_rng(dse::chromosome_hash(genotype, 1));
  const core::Candidate candidate = decoder.decode(genotype, decode_rng);
  const std::string path = dir + "/dtlarge.ftmc";
  std::ofstream out(path);
  out << io::to_text(bench.arch, bench.apps, &candidate);
  if (!out) throw std::runtime_error("cannot write " + path);
  return path;
}

/// Set-up time: server construction (system parse, resident state, store
/// open) up to a `health` reply of ready.
double time_setup(const std::string& system_path, const std::string& dir,
                  int rep) {
  const ScratchDir store(dir, "setup-store-" + std::to_string(rep));
  const auto start = Clock::now();
  BenchServer server(system_path, store.path(), "");
  Connection link(server.port());
  const serve::JsonValue health = serve::parse_json(link.call(
      obs::Json::object()
          .set("v", serve::kRpcVersion)
          .set("id", "health")
          .set("method", "health")
          .dump()));
  const double seconds = seconds_since(start);
  const serve::JsonValue* result = health.get("result");
  if (result == nullptr || result->str_or("status", "") != "ready")
    throw std::runtime_error("benchmark server did not report ready");
  return seconds;
}

// --- Checks -----------------------------------------------------------------

/// Expected answers, computed in-process from the same system file.
class Checker {
 public:
  Checker(const std::string& system_path, const RequestMix& mix)
      : spec_(io::parse_system_file(system_path)),
        evaluator_(spec_.arch, spec_.apps, backend_),
        hardened_(hardening::apply_hardening(
            spec_.apps, spec_.candidate->plan, spec_.candidate->base_mapping,
            spec_.arch.processor_count())),
        mix_(&mix) {}

  /// Decodes and evaluates every genotype not yet known, on `threads`.
  void prepare(std::size_t threads) {
    const std::size_t begin = candidates_.size();
    const std::size_t end = mix_->genotypes.size();
    candidates_.resize(end);
    evaluations_.resize(end);
    const dse::Decoder decoder(spec_.arch, spec_.apps);
    util::ThreadPool pool(threads);
    pool.parallel_for(end - begin, [&](std::size_t k) {
      dse::Chromosome genotype = mix_->genotypes[begin + k];
      util::Rng rng(dse::chromosome_hash(genotype, mix_->seed()));
      candidates_[begin + k] = decoder.decode(genotype, rng);
      evaluations_[begin + k] =
          evaluator_.evaluate_uncached(candidates_[begin + k]);
    });
  }

  /// Checks one phase; a failed or wrong response is a failed request and
  /// misses the latency limit.
  void check(const std::vector<Request>& requests, PhaseResult& phase,
             Report& report) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ++report.attempted;
      std::string error;
      try {
        error = mismatch(requests[i], phase.responses[i]);
      } catch (const std::exception& parse_error) {
        error = parse_error.what();
      }
      if (error.empty()) continue;
      phase.latency_ms[i] = std::numeric_limits<double>::infinity();
      report.fail("request " + std::to_string(i) + ": " + error);
    }
  }

  const io::SystemSpec& spec() const { return spec_; }
  const core::Evaluator& evaluator() const { return evaluator_; }
  const sched::SchedulingAnalysis& backend() const { return backend_; }
  const core::Candidate& candidate(std::size_t genotype) const {
    return candidates_[genotype];
  }
  /// The server's evaluation of `genotype`, if a checked response held one.
  const core::Evaluation* served(std::size_t genotype) const {
    const auto found = served_.find(genotype);
    return found == served_.end() ? nullptr : &found->second;
  }
  double simulate_seconds() const { return simulate_s_; }
  std::size_t simulate_events() const { return simulate_events_; }

 private:
  std::string mismatch(const Request& request, const std::string& response) {
    if (response.empty()) return "no response";
    const serve::JsonValue root = serve::parse_json(response);
    if (!root.bool_or("ok", false)) return "refused: " + response;
    const serve::JsonValue* result = root.get("result");
    if (result == nullptr) return "no result";
    switch (request.kind) {
      case Request::Kind::kEvaluate:
        return matches(request.genotypes[0], *result, response, 0)
                   ? ""
                   : "evaluate differs from in-process evaluate_uncached";
      case Request::Kind::kBatch: {
        const serve::JsonValue* items = result->get("results");
        if (items == nullptr || items->array.size() != request.genotypes.size())
          return "malformed batch result";
        for (std::size_t k = 0; k < request.genotypes.size(); ++k) {
          const serve::JsonValue* item = items->array[k].get("result");
          if (!items->array[k].bool_or("ok", false) || item == nullptr ||
              !matches(request.genotypes[k], *item, response, k))
            return "batch item " + std::to_string(k) +
                   " differs from in-process evaluate_uncached";
        }
        return "";
      }
      case Request::Kind::kSimulate: {
        const sim::MonteCarloResult& expected = simulated(request.sim_seed);
        return result->u64_or("events_processed", 0) ==
                           expected.events_processed &&
                       result->u64_or("deadline_miss_profiles", 0) ==
                           expected.deadline_miss_profiles
                   ? ""
                   : "simulate differs from in-process monte_carlo_wcrt";
      }
    }
    return "unknown request kind";
  }

  /// Compares the server's evaluation of `genotype` (the `index`-th
  /// evaluation result of `response`) with the in-process one, and keeps
  /// the server's first answer for the core replay.
  bool matches(std::size_t genotype, const serve::JsonValue& result,
               const std::string& response, std::size_t index) {
    core::Evaluation got = served_evaluation(result, response, index);
    const bool same = same_evaluation(got, evaluations_[genotype]);
    served_.try_emplace(genotype, std::move(got));
    return same;
  }

  /// The `index`-th evaluation result of `response`.  WCRT bounds are read
  /// as the integers on the wire: the JSON reader holds numbers as doubles,
  /// which cannot represent the analysis' divergence sentinel (2^61 - 1).
  static core::Evaluation served_evaluation(const serve::JsonValue& result,
                                            const std::string& response,
                                            std::size_t index) {
    core::Evaluation evaluation = dist::evaluation_from_json(result);
    evaluation.graph_wcrt.clear();
    const std::string bounds = nth_array(response, "\"graph_wcrt\":", index);
    if (bounds.size() < 2) return evaluation;
    std::istringstream items(bounds.substr(1, bounds.size() - 2));
    for (std::string item; std::getline(items, item, ',');)
      evaluation.graph_wcrt.push_back(std::stoll(item));
    return evaluation;
  }

  /// Raw text of the `index`-th flat array following `key` in `text`.
  static std::string nth_array(const std::string& text, const std::string& key,
                               std::size_t index) {
    std::size_t at = 0;
    for (std::size_t seen = 0;; ++seen) {
      at = text.find(key, at);
      if (at == std::string::npos) return "";
      at += key.size();
      if (seen == index) break;
    }
    const std::size_t end = text.find(']', at);
    return end == std::string::npos ? "" : text.substr(at, end + 1 - at);
  }

  const sim::MonteCarloResult& simulated(std::uint64_t seed) {
    auto found = simulations_.find(seed);
    if (found != simulations_.end()) return found->second;
    sim::MonteCarloOptions mc;
    mc.profiles = kSimProfiles;
    mc.fault_probability = 0.3;
    mc.seed = seed;
    mc.threads = kServerThreads;
    const auto start = Clock::now();
    sim::MonteCarloResult result = sim::monte_carlo_wcrt(
        spec_.arch, hardened_, spec_.candidate->drop,
        sched::assign_priorities(hardened_.apps), mc);
    simulate_s_ += seconds_since(start);
    simulate_events_ += result.events_processed;
    return simulations_.emplace(seed, std::move(result)).first->second;
  }

  io::SystemSpec spec_;
  sched::HolisticAnalysis backend_;
  core::Evaluator evaluator_;
  hardening::HardenedSystem hardened_;
  const RequestMix* mix_;
  std::vector<core::Candidate> candidates_;
  std::vector<core::Evaluation> evaluations_;
  std::map<std::size_t, core::Evaluation> served_;
  std::map<std::uint64_t, sim::MonteCarloResult> simulations_;
  double simulate_s_ = 0.0;
  std::size_t simulate_events_ = 0;
};

// --- Ladder -----------------------------------------------------------------

/// Fixed open-loop rate ladder, requests/s: 100 to 2842 in 16 rungs, so the
/// binary search always probes exactly four rungs.
std::vector<double> ladder() {
  std::vector<double> rates{100.0};
  while (rates.size() < 16) rates.push_back(rates.back() * 1.25);
  return rates;
}

struct Probe {
  double rate = 0.0;
  double p99_ms = 0.0;
  bool passed = false;
};

/// A rung passes when every request succeeded, the p99 is within the
/// limit and the backlog did not grow (the last quarter's median latency
/// stays within twice the first quarter's plus 2 ms).
bool passes(const PhaseResult& phase, double& p99_ms) {
  p99_ms = quantile(phase.latency_ms, 0.99);
  if (!std::isfinite(p99_ms) || p99_ms > kLatencyLimitMs) return false;
  const std::size_t quarter = phase.latency_ms.size() / 4;
  const std::vector<double> head(phase.latency_ms.begin(),
                                 phase.latency_ms.begin() + quarter);
  const std::vector<double> tail(phase.latency_ms.end() - quarter,
                                 phase.latency_ms.end());
  return median(tail) <= 2.0 * median(head) + 2.0;
}

/// Requests per reference window when `windows` windows share half the
/// time budget (at least 4 s): a whole number of mix blocks, so every window
/// holds the same mix.
std::size_t window_requests(double seconds, std::size_t windows) {
  const double requests = std::max(4.0, 0.5 * seconds) * kReferenceRate /
                          static_cast<double>(windows * kMixBlock);
  return std::max<std::size_t>(1, static_cast<std::size_t>(requests)) *
         kMixBlock;
}

// --- Run --------------------------------------------------------------------

struct Phase {
  std::vector<Request> requests;
  PhaseResult result;
};

}  // namespace

void run_serve(const Args& args, Report& report) {
  // A server that hangs up must fail the requests, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  const ScratchDir scratch(args.work_dir, args.workload);
  const std::string system_path = write_system(scratch.path());

  // Set-up is taken three times here and once after every script, so it
  // samples the whole run; the median is reported.
  std::vector<double> setup_s;
  int setup_rep = 0;
  const auto set_up = [&] {
    setup_s.push_back(time_setup(system_path, scratch.path(), setup_rep++));
  };
  for (int rep = 0; rep < 3; ++rep) set_up();

  const benchmarks::Benchmark bench = benchmarks::dt_large_benchmark();
  RequestMix mix(dse::ChromosomeShape::of(bench.arch, bench.apps), args.seed);
  Checker checker(system_path, mix);
  const ScratchDir store(scratch.path(), "store");

  if (args.trace) {
    // Three arms alternate: a reference window on an untraced server, one
    // on a traced server (which writes the access log) and a script on the
    // traced server.  The tracing overhead compares the two servers' median
    // window p50s.  The stage split comes from the scripts' records only:
    // there the next request is already buffered when the server reads it,
    // so the read stage is the read itself rather than the open-loop
    // client's pacing gap.  Registry deltas are summed over the traced
    // server's phases.
    const std::string access_log = scratch.path() + "/access.jsonl";
    const ScratchDir plain_store(scratch.path(), "plain-store");
    BenchServer plain_server(system_path, plain_store.path(), "");
    BenchServer traced_server(system_path, store.path(), access_log);
    const std::size_t window_size =
        window_requests(args.seconds, 2 * kScripts);
    std::vector<Phase> plain, traced;
    std::map<std::string, double> deltas;
    const auto on_traced = [&](Phase phase, bool is_script) {
      const obs::MetricsSnapshot before = obs::snapshot();
      phase.result =
          is_script ? script(traced_server.port(), phase.requests)
                 : open_loop(traced_server.port(), phase.requests,
                             kReferenceRate);
      const obs::MetricsSnapshot after = obs::snapshot();
      for (const char* name :
           {"cache.eval.hits", "cache.eval.misses", "cache.eval.insertions",
            "store.appends", "store.hits", "store.misses"})
        deltas[name] += static_cast<double>(after.value_of(name) -
                                            before.value_of(name));
      traced.push_back(std::move(phase));
    };
    for (std::size_t k = 0; k < kScripts; ++k) {
      plain.push_back({mix.phase(1 + 3 * k, window_size), {}});
      plain.back().result = open_loop(plain_server.port(),
                                      plain.back().requests, kReferenceRate);
      on_traced({mix.phase(2 + 3 * k, window_size), {}}, false);
      on_traced({mix.phase(3 + 3 * k, kScriptRequests), {}}, true);
    }
    const auto bytes_in = static_cast<double>(
        traced_server.stats().bytes_in.load());
    const auto bytes_out = static_cast<double>(
        traced_server.stats().bytes_out.load());
    checker.prepare(check_threads());
    std::vector<double> plain_p50, traced_p50, send_lag;
    for (Phase& window : plain) {
      checker.check(window.requests, window.result, report);
      plain_p50.push_back(median(window.result.latency_ms));
    }
    for (std::size_t k = 0; k < traced.size(); ++k) {
      checker.check(traced[k].requests, traced[k].result, report);
      if (k % 2 == 1) continue;  // a script
      traced_p50.push_back(median(traced[k].result.latency_ms));
      send_lag.insert(send_lag.end(), traced[k].result.send_lag_ms.begin(),
                      traced[k].result.send_lag_ms.end());
    }

    std::map<std::string, std::vector<double>> stages;
    std::ifstream log(access_log);
    for (std::string line; std::getline(log, line);) {
      const serve::JsonValue record = serve::parse_json(line);
      const auto phase =
          static_cast<std::uint64_t>(record.num_or("id", 0)) / kIdStride;
      const serve::JsonValue* us = record.get("us");
      if (phase % 3 != 0 || us == nullptr) continue;  // not a script
      for (const char* stage : {"read", "parse", "dispatch", "render", "write"})
        stages[stage].push_back(us->num_or(stage, 0));
    }
    const auto delta = [&](const char* name) { return deltas[name]; };
    const auto ratio = [](double hits, double total) {
      return total > 0 ? hits / total : 0.0;
    };

    // Core replay of the fresh genotypes the traced server evaluated,
    // checked against the server's own answers.
    std::vector<CapturedEvaluation> replay;
    std::set<std::size_t> seen;
    for (const Phase& phase : traced)
      for (const Request& request : phase.requests)
        for (const std::size_t genotype : request.genotypes)
          if (replay.size() < 300 && seen.insert(genotype).second) {
            const core::Evaluation* served = checker.served(genotype);
            if (served == nullptr) continue;  // failed, already reported
            replay.push_back({checker.candidate(genotype), *served, true});
          }
    replay_core(checker.evaluator(), checker.backend(), replay, report);

    auto& layers = report.layers;
    for (const auto& [stage, samples] : stages)
      layers["serve." + stage + "_us"] = median(samples);
    layers["serve.bytes_in"] = bytes_in;
    layers["serve.bytes_out"] = bytes_out;
    layers["core.cache.hit_ratio"] =
        ratio(delta("cache.eval.hits"),
              delta("cache.eval.hits") + delta("cache.eval.misses"));
    layers["core.cache.insertions"] = delta("cache.eval.insertions");
    layers["core.store.appends"] = delta("store.appends");
    layers["core.store.hit_ratio"] = ratio(
        delta("store.hits"), delta("store.hits") + delta("store.misses"));
    layers["sim.simulate.s"] = checker.simulate_seconds();
    layers["sim.events_per_s"] =
        checker.simulate_seconds() > 0
            ? static_cast<double>(checker.simulate_events()) /
                  checker.simulate_seconds()
            : 0.0;
    layers["bench.send_lag_p99_ms"] = quantile(send_lag, 0.99);
    layers["trace.overhead_pct"] =
        (median(traced_p50) / median(plain_p50) - 1.0) * 100.0;
    return;
  }

  // The reference load runs in kScripts windows, each followed by one
  // script and one set-up sample, so every figure samples the whole run.
  // Per-window percentiles are reduced by their median: a stall of the host
  // moves one window, not the result.
  BenchServer server(system_path, store.path(), "");
  const std::size_t window_size = window_requests(args.seconds, kScripts);
  std::vector<Phase> windows, scripts;
  std::vector<double> script_s;
  for (std::size_t k = 0; k < kScripts; ++k) {
    windows.push_back({mix.phase(1 + 2 * k, window_size), {}});
    windows.back().result =
        open_loop(server.port(), windows.back().requests, kReferenceRate);
    scripts.push_back({mix.phase(2 + 2 * k, kScriptRequests), {}});
    scripts.back().result = script(server.port(), scripts.back().requests);
    script_s.push_back(scripts.back().result.wall_s);
    set_up();
  }

  // Binary search over the fixed ladder, each rung probed with its own
  // stream of kProbeRequests requests (a fixed count, so the p99 always has
  // ten samples beyond it and memory does not depend on the rungs probed).
  const std::vector<double> rates = ladder();
  std::vector<Phase> probes;
  std::vector<Probe> outcomes;
  std::size_t low = 0, high = rates.size();  // rates[low] assumed to pass
  while (high - low > 1) {
    const std::size_t mid = (low + high) / 2;
    probes.push_back({mix.phase(100 + mid, kProbeRequests), {}});
    probes.back().result =
        open_loop(server.port(), probes.back().requests, rates[mid]);
    Probe probe{rates[mid], 0.0, false};
    probe.passed = passes(probes.back().result, probe.p99_ms);
    outcomes.push_back(probe);
    (probe.passed ? low : high) = mid;
  }

  checker.prepare(check_threads());
  std::vector<double> window_p50, latency, send_lag;
  std::map<Request::Kind, std::vector<double>> by_kind;
  for (Phase& window : windows) {
    checker.check(window.requests, window.result, report);
    const std::vector<double>& samples = window.result.latency_ms;
    for (std::size_t i = 0; i < samples.size(); ++i)
      by_kind[window.requests[i].kind].push_back(samples[i]);
    window_p50.push_back(median(samples));
    latency.insert(latency.end(), samples.begin(), samples.end());
    send_lag.insert(send_lag.end(), window.result.send_lag_ms.begin(),
                    window.result.send_lag_ms.end());
  }
  for (Phase& script : scripts)
    checker.check(script.requests, script.result, report);
  for (Phase& probe : probes)
    checker.check(probe.requests, probe.result, report);

  const Tail tail = tail_of(latency, kScripts * window_size);
  report.metric("setup_s", median(setup_s), "s");
  report.metric("run_s", median(script_s), "s");
  report.metric("p50_ms", median(by_kind[Request::Kind::kEvaluate]), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  char comment[128];
  std::snprintf(comment, sizeof(comment),
                "all kinds: median of %zu windows' p50 at %.0f req/s",
                kScripts, kReferenceRate);
  report.note("rpc_p50_ms", median(window_p50), "ms", comment);
  std::snprintf(comment, sizeof(comment), "windows pooled, %zu of %zu beyond",
                tail.beyond, latency.size());
  report.note("rpc_p" + std::to_string(static_cast<int>(tail.percentile)) +
                  "_ms",
              tail.value, "ms", comment);
  for (const auto& [kind, name] :
       {std::pair{Request::Kind::kEvaluate, "evaluate"},
        std::pair{Request::Kind::kBatch, "batch"},
        std::pair{Request::Kind::kSimulate, "simulate"}}) {
    std::snprintf(comment, sizeof(comment), "%s, all windows pooled (%zu)%s",
                  name, by_kind[kind].size(),
                  kind == Request::Kind::kEvaluate ? " = p50_ms" : "");
    report.note("rpc_p50_ms", median(by_kind[kind]), "ms", comment);
  }
  report.note("script_rps",
              static_cast<double>(kScriptRequests) / median(script_s),
              "req/s",
              "= " + std::to_string(kScriptRequests) +
                  "-request script / run_s (median of " +
                  std::to_string(kScripts) + ")");
  for (const Probe& probe : outcomes) {
    std::snprintf(comment, sizeof(comment), "p99 %.2f ms: %s",
                  probe.p99_ms, probe.passed ? "pass" : "fail");
    report.note("ladder_rung", probe.rate, "req/s", comment);
  }
  report.note("rpc_max_rps", rates[low], "req/s",
              "p99 limit " + std::to_string(kLatencyLimitMs) + " ms");
  report.note("send_lag_p99_ms", quantile(send_lag, 0.99), "ms");
  report.note("fail_pct",
              100.0 * static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              "%");
}

}  // namespace perfbench
