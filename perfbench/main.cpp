// ftmc benchmark program (built and run by run.py).
//
//   ftmc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>] [--git-sha <sha>]
//
// Prints a human-readable table, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits 1 when an output check failed, 2 on a usage or
// runtime error (no JSON line then).
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "ftmc/obs/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload")
      args.workload = value;
    else if (flag == "--seed")
      args.seed = std::stoull(value);
    else if (flag == "--seconds")
      args.seconds = std::stod(value);
    else if (flag == "--trace")
      args.trace = value == "1";
    else if (flag == "--work-dir")
      args.work_dir = value;
    else if (flag == "--git-sha")
      args.git_sha = value;
    else
      throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0))
    throw std::invalid_argument("--seconds must be > 0");
  return args;
}

void print(const Args& args, const Report& report) {
  std::printf("ftmc benchmark: workload %s, seed %llu, %s run, nproc %u, "
              "GA worker threads %zu, git %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced",
              std::thread::hardware_concurrency(),
              perfbench::workload_threads(), args.git_sha.c_str());
  for (const std::string& line : report.lines)
    std::printf("%s\n", line.c_str());

  ftmc::obs::Json metrics = ftmc::obs::Json::object();
  if (args.trace) {
    std::printf("Per-layer metrics (0 = layer not entered by this "
                "workload):\n");
    for (const auto& [name, unit] : perfbench::layer_metrics()) {
      const auto found = report.layers.find(name);
      const double value = found == report.layers.end() ? 0.0 : found->second;
      std::printf("  %-28s %16.6g %s\n", name.c_str(), value, unit.c_str());
      metrics.set(name, ftmc::obs::Json::object().set("value", value).set(
                            "unit", unit));
    }
  } else {
    for (const Report::Metric& metric : report.metrics)
      metrics.set(metric.name, ftmc::obs::Json::object()
                                   .set("value", metric.value)
                                   .set("unit", metric.unit));
  }
  for (const std::string& failure : report.failures)
    std::printf("FAILED CHECK: %s\n", failure.c_str());
  const std::string result = ftmc::obs::Json::object()
                                 .set("correct", report.correct())
                                 .set("attempted", report.attempted)
                                 .set("failed", report.failed)
                                 .set("metrics", std::move(metrics))
                                 .dump();
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Report report;
    if (args.workload.rfind("dse-", 0) == 0)
      perfbench::run_dse(args, report);
    else if (args.workload == "serve-worker-dtlarge")
      perfbench::run_serve(args, report);
    else
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    if (report.attempted == 0) report.attempted = 1;
    print(args, report);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ftmc_perfbench: %s\n", error.what());
    return 2;
  }
}
