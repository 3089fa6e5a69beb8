#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

namespace perfbench {

Tail tail_of(const std::vector<double>& samples, std::size_t planned) {
  const auto beyond = [](std::size_t count, double pct) {
    return static_cast<std::size_t>(std::floor(
        static_cast<double>(count) * (100.0 - pct) / 100.0 + 1e-9));
  };
  Tail tail;
  for (const double pct : {90.0, 95.0, 99.0, 99.9})
    if (beyond(planned, pct) >= 10) tail.percentile = pct;
  tail.value = quantile(samples, tail.percentile / 100.0);
  tail.beyond = beyond(samples.size(), tail.percentile);
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::fail(const std::string& message) {
  ++failed;
  failures.push_back(message);
  std::fprintf(stderr, "CHECK FAILED: %s\n", message.c_str());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
  note(name, value, unit);
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, const std::string& comment) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "  %-28s %16.6g %-8s %s",
                name.c_str(), value, unit.c_str(), comment.c_str());
  lines.emplace_back(buffer);
}

ScratchDir::ScratchDir(const std::string& root, const std::string& tag) {
  static int counter = 0;
  path_ = root + "/" + tag + "-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter++);
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"dse.executor.busy_s", "s"},
      {"dse.executor.share", "ratio"},
      {"dse.executor.items", "count"},
      {"dse.memo.hit_ratio", "ratio"},
      {"dse.decode.s", "s"},
      {"dse.decode.calls", "count"},
      {"dse.spea2_select.s", "s"},
      {"dse.spea2_select.calls", "count"},
      {"dse.spea2_fitness.s", "s"},
      {"dse.archive.distinct_ratio", "ratio"},
      {"dse.variation.s", "s"},
      {"dse.checkpoint.s", "s"},
      {"dse.checkpoint.bytes", "bytes"},
      {"dse.unattributed_s", "s"},
      {"core.evaluate.s", "s"},
      {"core.evaluate.p50_us", "us"},
      {"core.evaluate.calls", "count"},
      {"hardening.reliability.s", "s"},
      {"hardening.apply.s", "s"},
      {"core.mc_analysis.s", "s"},
      {"core.mc_analysis.self_s", "s"},
      {"core.mc_analysis.scenarios", "count"},
      {"sched.prepare.s", "s"},
      {"sched.solve.s", "s"},
      {"sched.solves", "count"},
      {"core.objectives.s", "s"},
      {"core.cache.hit_ratio", "ratio"},
      {"core.cache.insertions", "count"},
      {"core.store.appends", "count"},
      {"core.store.hit_ratio", "ratio"},
      {"serve.read_us", "us"},
      {"serve.parse_us", "us"},
      {"serve.dispatch_us", "us"},
      {"serve.render_us", "us"},
      {"serve.write_us", "us"},
      {"serve.bytes_in", "bytes"},
      {"serve.bytes_out", "bytes"},
      {"sim.simulate.s", "s"},
      {"sim.events_per_s", "1/s"},
      {"bench.send_lag_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

}  // namespace perfbench
