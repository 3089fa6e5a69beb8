#include "ftmc/dist/worker.hpp"

#include <netdb.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "ftmc/dse/executor.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/serve/protocol.hpp"

namespace ftmc::dist {
namespace {

struct WorkerCounters {
  obs::Counter spawns{"dse.worker.spawns"};
  obs::Counter lost{"dse.worker.lost"};
  obs::Counter respawns{"dse.worker.respawns"};
  obs::Counter calls{"dse.worker.calls"};
};

WorkerCounters& counters() {
  static WorkerCounters instance;
  return instance;
}

int connect_to(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &results) != 0)
    throw std::runtime_error("cannot resolve worker host '" + host + "'");
  int fd = -1;
  for (addrinfo* entry = results; entry != nullptr; entry = entry->ai_next) {
    fd = ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0)
    throw std::runtime_error("cannot connect to worker " + host + ":" +
                             service);
  serve::set_no_delay(fd);
  return fd;
}

/// "host:port" → (host, port); throws std::invalid_argument on nonsense so
/// a typo in --worker-hosts fails the campaign instead of being retried.
std::pair<std::string, std::uint16_t> parse_endpoint(
    const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size())
    throw std::invalid_argument("worker endpoint '" + endpoint +
                                "' is not host:port");
  const long port = std::atol(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535)
    throw std::invalid_argument("worker endpoint '" + endpoint +
                                "' has an invalid port");
  return {endpoint.substr(0, colon), static_cast<std::uint16_t>(port)};
}

std::string self_executable() {
  char buffer[4096];
  const ssize_t length =
      ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (length <= 0)
    throw std::runtime_error(
        "cannot resolve /proc/self/exe; pass the ftmc binary explicitly");
  buffer[length] = '\0';
  return std::string(buffer);
}

}  // namespace

struct WorkerConnection::Impl {
  int fd = -1;
  std::unique_ptr<serve::FrameReader> reader;
};

WorkerConnection::WorkerConnection(const std::string& host,
                                   std::uint16_t port)
    : impl_(std::make_unique<Impl>()) {
  impl_->fd = connect_to(host, port);
  impl_->reader = std::make_unique<serve::FrameReader>(impl_->fd);
}

WorkerConnection::~WorkerConnection() {
  if (impl_ != nullptr && impl_->fd >= 0) ::close(impl_->fd);
}

std::string WorkerConnection::call(const std::string& request) {
  serve::write_frame(impl_->fd, request);
  std::string payload;
  if (!impl_->reader->read(payload))
    throw std::runtime_error("worker hung up mid-call");
  return payload;
}

struct WorkerFleet::Worker {
  std::mutex mutex;           ///< serializes calls on this worker
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool spawned = false;       ///< we own the process and may respawn it
  bool unusable = false;      ///< external worker that stayed unreachable
  pid_t pid = -1;
  std::string port_file;      ///< rendezvous path for spawned workers
  std::unique_ptr<WorkerConnection> connection;
};

WorkerFleet::WorkerFleet(WorkerFleetOptions options)
    : options_(std::move(options)) {
  if (options_.spawn > 0 && options_.system_path.empty())
    throw std::invalid_argument(
        "spawning workers needs the system file to serve");
  if (options_.spawn == 0 && options_.hosts.empty())
    throw std::invalid_argument("a worker fleet needs spawn > 0 or hosts");
  for (std::size_t i = 0; i < options_.spawn; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->spawned = true;
    worker->port_file =
        "/tmp/ftmc_worker_" + std::to_string(::getpid()) + "_" +
        std::to_string(i) + ".port";
    spawn_worker(*worker);
    workers_.push_back(std::move(worker));
  }
  for (const std::string& endpoint : options_.hosts) {
    auto worker = std::make_unique<Worker>();
    const auto [host, port] = parse_endpoint(endpoint);
    worker->host = host;
    worker->port = port;
    workers_.push_back(std::move(worker));
  }
}

WorkerFleet::~WorkerFleet() {
  for (auto& worker : workers_) {
    // Best-effort drain; a worker that ignores it is killed below.
    try {
      ensure_connected(*worker);
      (void)worker->connection->call(
          R"({"v": "ftmc.rpc.v1", "id": "fleet", "method": "shutdown"})");
    } catch (const std::exception&) {
    }
    worker->connection.reset();
    if (!worker->spawned || worker->pid <= 0) continue;
    int status = 0;
    for (int tick = 0; tick < 100; ++tick) {
      if (::waitpid(worker->pid, &status, WNOHANG) == worker->pid) {
        worker->pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (worker->pid > 0) {
      ::kill(worker->pid, SIGKILL);
      (void)::waitpid(worker->pid, &status, 0);
    }
    std::remove(worker->port_file.c_str());
  }
}

void WorkerFleet::spawn_worker(Worker& worker) {
  std::remove(worker.port_file.c_str());
  const std::string binary = options_.ftmc_binary.empty()
                                 ? self_executable()
                                 : options_.ftmc_binary;
  std::vector<std::string> argv_strings = {
      binary,
      "serve",
      options_.system_path,
      "--port=0",
      "--port-file=" + worker.port_file,
      "--sample-interval=0",
  };
  if (options_.worker_threads > 0)
    argv_strings.push_back("--threads=" +
                           std::to_string(options_.worker_threads));
  if (!options_.cache_dir.empty())
    argv_strings.push_back("--cache-dir=" + options_.cache_dir);
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (std::string& arg : argv_strings) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("cannot fork a worker process");
  if (pid == 0) {
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  worker.pid = pid;
  counters().spawns.add(1);

  // Rendezvous: the worker writes its ephemeral port atomically.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      worker.pid = -1;
      throw std::runtime_error("worker exited during startup (status " +
                               std::to_string(status) + ")");
    }
    std::ifstream in(worker.port_file);
    long port = 0;
    if (in && (in >> port) && port > 0) {
      worker.port = static_cast<std::uint16_t>(port);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(pid, SIGKILL);
  (void)::waitpid(pid, nullptr, 0);
  worker.pid = -1;
  throw std::runtime_error("worker never wrote " + worker.port_file);
}

void WorkerFleet::ensure_connected(Worker& worker) {
  if (worker.unusable)
    throw dse::ExecutorError("worker " + worker.host + ":" +
                             std::to_string(worker.port) +
                             " is marked unusable");
  if (worker.spawned && worker.pid > 0) {
    int status = 0;
    if (::waitpid(worker.pid, &status, WNOHANG) == worker.pid) {
      // The process died underneath us (crash or SIGKILL): respawn.
      counters().lost.add(1);
      counters().respawns.add(1);
      worker.pid = -1;
      worker.connection.reset();
      spawn_worker(worker);
    }
  }
  if (worker.connection == nullptr) {
    try {
      worker.connection =
          std::make_unique<WorkerConnection>(worker.host, worker.port);
    } catch (const std::exception& error) {
      if (!worker.spawned) {
        // External workers cannot be respawned; after a failed reconnect
        // the fleet re-shards their islands elsewhere.
        counters().lost.add(1);
        worker.unusable = true;
      }
      throw dse::ExecutorError(error.what());
    }
  }
}

std::size_t WorkerFleet::assign(std::size_t island) {
  const std::size_t preferred = island % workers_.size();
  for (std::size_t offset = 0; offset < workers_.size(); ++offset) {
    const std::size_t index = (preferred + offset) % workers_.size();
    if (!workers_[index]->unusable) return index;
  }
  throw dse::ExecutorError("no usable worker left in the fleet");
}

std::string WorkerFleet::call(std::size_t index, const std::string& request) {
  Worker& worker = *workers_.at(index);
  std::lock_guard<std::mutex> lock(worker.mutex);
  ensure_connected(worker);
  counters().calls.add(1);
  try {
    return worker.connection->call(request);
  } catch (const std::exception& error) {
    // Drop the connection: the next call reconnects (and respawns a dead
    // spawned worker).  The campaign's retry machinery re-runs the batch.
    worker.connection.reset();
    throw dse::ExecutorError(error.what());
  }
}

pid_t WorkerFleet::pid(std::size_t index) const {
  return workers_.at(index)->pid;
}

}  // namespace ftmc::dist
