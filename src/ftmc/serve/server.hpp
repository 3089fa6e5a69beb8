// `ftmc serve` — a long-lived daemon that keeps systems hot.
//
// The one-shot CLI pays the full cold path on every invocation: parse the
// system file, build the analysis backend, prepare the simulation problem,
// evaluate.  The server pays it once per system at startup and keeps the
// expensive state resident — parsed SystemSpec, hardened view, Evaluator
// wired to a shared L1 EvaluationCache and (with --cache-dir) a persistent
// L2 EvalStore, a PreparedSim per requested hyperperiod count, and one
// ThreadPool — then answers analyze/simulate/evaluate requests over the
// length-prefixed JSONL protocol of protocol.hpp, on stdio or a TCP socket.
//
// Concurrency model (see DESIGN.md "Serving" for the full rules):
//
//  - serve_tcp accepts up to `max_connections` concurrent connections; each
//    gets a dedicated session thread that reads frames, handles each request
//    inline, and writes the response before the next read — so pipelined
//    requests on one connection always answer in order.  At the connection
//    cap the acceptor simply stops accepting (backpressure: further clients
//    queue in the listen backlog) until a session ends.
//  - Resident state is shared read-mostly: systems/evaluators/decoders are
//    immutable after startup, the L1 cache and L2 store are internally
//    synchronized, the per-system PreparedSim map is guarded by a mutex,
//    and the thread pool is shared for intra-request fan-out (transition
//    scenarios, Monte-Carlo profiles, batch items).
//  - Graceful drain quiesces *all* sessions: a shutdown request or
//    stop_requested() stops the acceptor, half-closes every session socket
//    (SHUT_RD), lets in-flight responses finish writing, joins the session
//    threads, and flushes the stores.
//
// Every "output" field stays byte-identical to the corresponding one-shot
// CLI stdout regardless of concurrency (pinned by tests/test_serve.cpp and
// the CI smoke job).
//
// Request:   {"id": <string|number>, "method": "<name>",
//             "system": "<path as loaded>",   // optional with one system
//             "params": {...}}                // method-specific, optional
// Response:  {"id": <echoed>, "ok": true, "result": {...}}
//        or  {"id": <echoed>, "ok": false, "error": "<message>"}
//
// Methods: ping, systems, analyze, evaluate, simulate
//          (params: profiles, fault_prob as a STRING, seed, hyperperiods),
//          stats, batch (params.requests = array of request objects, fanned
//          out across the pool, results in request order), shutdown,
//          metrics (full ftmc.metrics.v1 snapshot + windowed rates;
//          params.format "prometheus" returns the text exposition), and
//          health (ready/draining, uptime, inflight, resident systems).
//          analyze/evaluate accept an inline candidate instead of the
//          resident one: params.candidate (a text-format `candidate {...}`
//          block) or params.chromosome (a GA genotype, decoded and repaired
//          exactly like the in-process GA) — the entry point for remote DSE
//          workers.  A malformed request fails that one request (ok:false),
//          never the server; a broken *frame* ends that stream only.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/thread_pool.hpp"

namespace ftmc::obs {
class Json;
class TimeSeriesSampler;
}

namespace ftmc::core {
struct Candidate;
}

namespace ftmc::serve {

struct JsonValue;

struct ServeOptions {
  /// System files to load at startup (each stays resident for its
  /// lifetime).  Duplicates are rejected.
  std::vector<std::string> system_paths;
  /// Worker threads for intra-request fan-out (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Root of the persistent evaluation store; each system gets its own
  /// subdirectory (core::store_directory).  Empty disables the L2.
  std::string cache_dir;
  /// In-process L1 evaluation cache (--no-cache turns it off).
  bool enable_cache = true;
  /// Stop after this many requests (0 = unlimited; CI/test aid).
  std::size_t max_requests = 0;
  /// Concurrent TCP sessions served at once (minimum 1).  Further clients
  /// wait in the listen backlog until a session ends (backpressure).
  std::size_t max_connections = 8;
  /// JSONL access log: one record per request with the latency breakdown
  /// (see DESIGN.md "Live serve observability").  Empty disables it.
  std::string access_log;
  /// Requests whose parse+dispatch+render time reaches this many
  /// milliseconds are escalated to the main log at Warn (0 disables).
  std::size_t slow_ms = 0;
  /// Cadence of the background metrics sampler feeding the `metrics`
  /// method's windowed rates (0 disables sampling).
  std::size_t sample_interval_ms = 1000;
  /// Prometheus textfile rewritten (write-temp+rename) on every sampler
  /// tick, for node-exporter-style collection.  Empty disables it;
  /// requires the sampler.
  std::string prom_textfile;
  /// Polled between requests/accepts; true requests a graceful drain
  /// (SIGINT/SIGTERM handler in the CLI).
  std::function<bool()> stop_requested;
};

/// Aggregate request statistics; atomics because sessions record them
/// concurrently (relaxed — they are monotone tallies, never coordination).
struct ServeStats {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> connections{0};
  /// Requests currently inside handle() across all sessions (health).
  std::atomic<std::uint64_t> inflight{0};
};

class Server {
 public:
  /// Loads every system (throws on parse errors, duplicate paths, or store
  /// damage) and builds the resident state.
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one request document and returns the response document (the
  /// protocol framing is the caller's job).  Never throws on bad requests —
  /// those produce ok:false responses.  Thread-safe: sessions call this
  /// concurrently.
  std::string handle(const std::string& request);

  /// Serves frames from `in_fd` to `out_fd` (stdio mode: 0/1) until EOF,
  /// shutdown, max_requests, or stop_requested.  Returns an exit code.
  int serve_fd(int in_fd, int out_fd);

  /// Binds 127.0.0.1:`port` (0 = ephemeral), optionally writes the bound
  /// port to `port_file` (atomically, for CI rendezvous), and serves up to
  /// max_connections concurrent sessions until shutdown/stop_requested,
  /// then drains them all.
  int serve_tcp(std::uint16_t port, const std::string& port_file);

  /// Port bound by serve_tcp (0 before bind; atomic so another thread can
  /// poll it while serve_tcp runs).
  std::uint16_t bound_port() const noexcept {
    return bound_port_.load(std::memory_order_acquire);
  }

  /// True once a shutdown request or stop_requested() drain began.
  bool stopping() const;

  /// Flushes every system's persistent store (fsync + index rewrite).
  void flush();

  const ServeStats& stats() const noexcept { return stats_; }

 private:
  struct ResidentSystem;
  /// Per-request observation record (defined in server.cpp): request id,
  /// method, outcome, byte counts, and the read/parse/dispatch/render/
  /// write latency breakdown.  Purely observational — it is filled beside
  /// the request and emitted to the access log, the per-method latency
  /// histograms, and (past --slow-ms) the main log after the response is
  /// complete; nothing in it feeds back into response bytes.
  struct RequestInfo;

  ResidentSystem& resident(const JsonValue& root);
  /// Envelope-level dispatch shared by handle() and batch items: returns a
  /// complete {"id", "ok", ...} response document and never throws.
  /// `info` (top-level requests only, else nullptr) receives method/system/
  /// cache/error observations; `request_id` is the caller's resolved id,
  /// propagated into batch sub-request trace annotations.
  obs::Json dispatch(const JsonValue& root, bool allow_batch,
                     RequestInfo* info, const std::string& request_id);
  obs::Json handle_batch(const JsonValue& params,
                         const std::string& request_id);
  obs::Json handle_analyze(ResidentSystem& sys, const JsonValue& params,
                           RequestInfo* info);
  obs::Json handle_evaluate(ResidentSystem& sys, const JsonValue& params,
                            RequestInfo* info);
  obs::Json handle_simulate(ResidentSystem& sys, const JsonValue& params);
  obs::Json handle_metrics(const JsonValue& params) const;
  obs::Json health_json() const;
  /// The candidate a request refers to: inline params.candidate (text
  /// block) or params.chromosome (decoded genotype), else the resident one.
  core::Candidate request_candidate(ResidentSystem& sys,
                                    const JsonValue& params);
  /// handle() minus the observation epilogue: parses, dispatches, renders,
  /// and fills `info` (counters/stats included).  Sessions call this so
  /// the record can also cover the frame read/write stages.
  std::string handle_request(const std::string& request, RequestInfo& info);
  /// Emits the completed record: per-method latency histogram, access-log
  /// line, and the --slow-ms escalation.
  void finish_request(const RequestInfo& info);
  void write_access_record(const RequestInfo& info);
  /// One session: read frame -> handle inline -> write response, until
  /// EOF/stop.  Shared by serve_fd and every TCP session thread.
  int run_session(int in_fd, int out_fd, bool tcp);
  obs::Json stats_json() const;
  obs::Json systems_json() const;

  ServeOptions options_;
  sched::HolisticAnalysis backend_;
  util::ThreadPool pool_;
  std::vector<std::unique_ptr<ResidentSystem>> systems_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint16_t> bound_port_{0};
  ServeStats stats_;
  /// Feeds the `metrics` method's windowed rates; started at construction,
  /// joined in the destructor (after the graceful drain).
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::chrono::steady_clock::time_point started_at_;
  int access_log_fd_ = -1;  ///< O_APPEND fd; -1 when access logging is off
  std::atomic<bool> access_log_failed_{false};
  std::atomic<std::uint64_t> next_request_id_{1};
};

}  // namespace ftmc::serve
