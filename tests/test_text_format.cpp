#include "ftmc/io/text_format.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "ftmc/benchmarks/cruise.hpp"
#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sim/monte_carlo.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using io::parse_system_string;
using io::ParseError;

const char* kMinimal = R"(
platform {
  bandwidth 2.0
  processor pe0 { static 50 dynamic 150 fault_rate 1e-8 }
  processor pe1 { }
}
application app {
  period 100ms
  reliability 1e-12
  task a { bcet 5ms wcet 10ms ve 2ms dt 1ms }
  task b { wcet 8ms }
  channel a -> b bytes 256
}
)";

TEST(TextFormat, ParsesMinimalSystem) {
  const auto spec = parse_system_string(kMinimal);
  EXPECT_EQ(spec.arch.processor_count(), 2u);
  EXPECT_DOUBLE_EQ(spec.arch.bandwidth(), 2.0);
  const auto& pe0 = spec.arch.processor(model::ProcessorId{0});
  EXPECT_EQ(pe0.name, "pe0");
  EXPECT_DOUBLE_EQ(pe0.static_power, 50.0);
  EXPECT_DOUBLE_EQ(pe0.fault_rate, 1e-8);
  EXPECT_DOUBLE_EQ(pe0.speed_factor, 1.0);  // default
  ASSERT_EQ(spec.apps.graph_count(), 1u);
  const auto& graph = spec.apps.graph(model::GraphId{0});
  EXPECT_EQ(graph.name(), "app");
  EXPECT_EQ(graph.period(), 100 * model::kMillisecond);
  EXPECT_DOUBLE_EQ(graph.reliability_constraint(), 1e-12);
  EXPECT_EQ(graph.task(0).bcet, 5000);
  EXPECT_EQ(graph.task(0).wcet, 10000);
  EXPECT_EQ(graph.task(0).voting_overhead, 2000);
  EXPECT_EQ(graph.task(0).detection_overhead, 1000);
  EXPECT_EQ(graph.task(1).bcet, 0);  // default
  ASSERT_EQ(graph.channels().size(), 1u);
  EXPECT_EQ(graph.channels()[0].size_bytes, 256u);
  EXPECT_FALSE(spec.candidate.has_value());
}

TEST(TextFormat, TimeUnits) {
  const auto spec = parse_system_string(R"(
platform { processor p { } }
application a {
  period 1s
  droppable 1
  task t { bcet 250us wcet 1500 }
}
)");
  const auto& graph = spec.apps.graph(model::GraphId{0});
  EXPECT_EQ(graph.period(), model::kSecond);
  EXPECT_EQ(graph.task(0).bcet, 250);
  EXPECT_EQ(graph.task(0).wcet, 1500);  // bare numbers are microseconds
}

TEST(TextFormat, CommentsAndWhitespaceIgnored) {
  const auto spec = parse_system_string(
      "platform { # trailing\n processor p { } }  # another\n"
      "application a{period 10ms\ndroppable 2\ntask t{wcet 1ms}}");
  EXPECT_EQ(spec.apps.graph_count(), 1u);
  EXPECT_TRUE(spec.apps.graph(model::GraphId{0}).droppable());
}

TEST(TextFormat, ParsesCandidateBlock) {
  const std::string text = std::string(kMinimal) + R"(
candidate {
  allocate pe0 pe1
  map app.a pe1
  map app.b pe0
  harden app.a reexec 2
  harden app.b active pe0 pe1 voter pe0
}
)";
  const auto spec = parse_system_string(text);
  ASSERT_TRUE(spec.candidate.has_value());
  const auto& candidate = *spec.candidate;
  EXPECT_EQ(candidate.allocation, (core::Allocation{true, true}));
  EXPECT_EQ(candidate.base_mapping[0], model::ProcessorId{1});
  EXPECT_EQ(candidate.base_mapping[1], model::ProcessorId{0});
  EXPECT_EQ(candidate.plan[0].technique,
            hardening::Technique::kReexecution);
  EXPECT_EQ(candidate.plan[0].reexecutions, 2);
  EXPECT_EQ(candidate.plan[1].technique,
            hardening::Technique::kActiveReplication);
  ASSERT_EQ(candidate.plan[1].replica_pes.size(), 2u);
  EXPECT_EQ(candidate.plan[1].voter_pe, model::ProcessorId{0});
}

TEST(TextFormat, EmptyAllocateDefaultsToAll) {
  const std::string text = std::string(kMinimal) + "candidate { }\n";
  const auto spec = parse_system_string(text);
  ASSERT_TRUE(spec.candidate.has_value());
  EXPECT_EQ(spec.candidate->allocation, (core::Allocation{true, true}));
}

TEST(TextFormat, DropReferencesGraphs) {
  const std::string text = R"(
platform { processor p { } }
application crit { period 10ms reliability 1e-9 task t { wcet 1ms } }
application aux  { period 10ms droppable 2 task u { wcet 1ms } }
candidate { drop aux }
)";
  const auto spec = parse_system_string(text);
  ASSERT_TRUE(spec.candidate.has_value());
  EXPECT_FALSE(spec.candidate->drop[0]);
  EXPECT_TRUE(spec.candidate->drop[1]);
}

// ---- Error reporting ------------------------------------------------------

TEST(TextFormat, ErrorsCarryLineNumbers) {
  try {
    parse_system_string("platform {\n  bogus 3\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), 2);
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos);
  }
}

TEST(TextFormat, RejectsMalformedInput) {
  EXPECT_THROW(parse_system_string(""), ParseError);
  EXPECT_THROW(parse_system_string("platform { processor p { } }"),
               ParseError);  // no applications
  EXPECT_THROW(parse_system_string(
                   "application a { period 1ms droppable 1 task t { wcet "
                   "1ms } }"),
               ParseError);  // no platform
  // Unknown fields / bad numbers / bad times.
  EXPECT_THROW(parse_system_string(
                   "platform { processor p { wattage 3 } }"),
               ParseError);
  EXPECT_THROW(parse_system_string(
                   "platform { bandwidth fast processor p { } }"),
               ParseError);
  EXPECT_THROW(
      parse_system_string("platform { processor p { } }\n"
                          "application a { period soon droppable 1 task t "
                          "{ wcet 1ms } }"),
      ParseError);
}

TEST(TextFormat, RejectsMissingApplicationAttributes) {
  EXPECT_THROW(parse_system_string(
                   "platform { processor p { } }\n"
                   "application a { droppable 1 task t { wcet 1ms } }"),
               ParseError);  // no period
  EXPECT_THROW(parse_system_string(
                   "platform { processor p { } }\n"
                   "application a { period 1ms task t { wcet 1ms } }"),
               ParseError);  // no criticality
}

TEST(TextFormat, RejectsUnknownReferences) {
  EXPECT_THROW(parse_system_string(
                   "platform { processor p { } }\n"
                   "application a { period 1ms droppable 1 task t { wcet "
                   "1ms } channel t -> u }"),
               ParseError);
  const std::string base =
      "platform { processor p { } }\n"
      "application a { period 1ms droppable 1 task t { wcet 1ms } }\n";
  EXPECT_THROW(parse_system_string(base + "candidate { map a.x p }"),
               ParseError);
  EXPECT_THROW(parse_system_string(base + "candidate { map b.t p }"),
               ParseError);
  EXPECT_THROW(parse_system_string(base + "candidate { map a.t q }"),
               ParseError);
  EXPECT_THROW(parse_system_string(base + "candidate { drop b }"),
               ParseError);
  EXPECT_THROW(parse_system_string(base + "candidate { harden a.t laser 1 }"),
               ParseError);
}

TEST(TextFormat, ModelInvariantsStillChecked) {
  // bcet > wcet is a model error surfaced through the builder.
  EXPECT_THROW(parse_system_string(
                   "platform { processor p { } }\n"
                   "application a { period 1ms droppable 1 task t { bcet "
                   "2ms wcet 1ms } }"),
               std::invalid_argument);
  // Cyclic graph.
  EXPECT_THROW(parse_system_string(
                   "platform { processor p { } }\n"
                   "application a { period 9ms droppable 1 task t { wcet "
                   "1ms } task u { wcet 1ms } channel t -> u channel u -> "
                   "t }"),
               std::invalid_argument);
}

// ---- Round trips ----------------------------------------------------------

TEST(TextFormat, RoundTripPreservesBenchmarks) {
  for (const auto& bench :
       {benchmarks::cruise_benchmark(), benchmarks::dt_med_benchmark()}) {
    const std::string text = io::to_text(bench.arch, bench.apps);
    const auto spec = parse_system_string(text);
    ASSERT_EQ(spec.apps.graph_count(), bench.apps.graph_count());
    ASSERT_EQ(spec.apps.task_count(), bench.apps.task_count());
    EXPECT_EQ(spec.arch.processor_count(), bench.arch.processor_count());
    for (std::size_t i = 0; i < bench.apps.task_count(); ++i) {
      const auto ref = bench.apps.task_ref(i);
      EXPECT_EQ(spec.apps.task(ref).wcet, bench.apps.task(ref).wcet);
      EXPECT_EQ(spec.apps.task(ref).bcet, bench.apps.task(ref).bcet);
      EXPECT_EQ(spec.apps.task(ref).name, bench.apps.task(ref).name);
    }
    for (std::uint32_t g = 0; g < bench.apps.graph_count(); ++g) {
      const model::GraphId id{g};
      EXPECT_EQ(spec.apps.graph(id).period(), bench.apps.graph(id).period());
      EXPECT_EQ(spec.apps.graph(id).channels().size(),
                bench.apps.graph(id).channels().size());
    }
  }
}

TEST(TextFormat, RoundTripPreservesCandidate) {
  const auto cruise = benchmarks::cruise_benchmark();
  const auto configs = benchmarks::cruise_sample_configs(cruise);
  const core::Candidate& original = configs[0].candidate;
  const std::string text = io::to_text(cruise.arch, cruise.apps, &original);
  const auto spec = parse_system_string(text);
  ASSERT_TRUE(spec.candidate.has_value());
  EXPECT_EQ(spec.candidate->allocation, original.allocation);
  EXPECT_EQ(spec.candidate->drop, original.drop);
  EXPECT_EQ(spec.candidate->base_mapping, original.base_mapping);
  ASSERT_EQ(spec.candidate->plan.size(), original.plan.size());
  for (std::size_t i = 0; i < original.plan.size(); ++i)
    EXPECT_EQ(spec.candidate->plan[i], original.plan[i]) << "task " << i;
}

TEST(TextFormat, FormatTime) {
  EXPECT_EQ(io::format_time(0), "0us");
  EXPECT_EQ(io::format_time(250), "250us");
  EXPECT_EQ(io::format_time(1000), "1ms");
  EXPECT_EQ(io::format_time(1500), "1500us");
  EXPECT_EQ(io::format_time(2'000'000), "2s");
  EXPECT_EQ(io::format_time(1'500'000), "1500ms");
}

TEST(TextFormat, FileRoundTrip) {
  const auto apps = fixtures::small_mixed_apps();
  const auto arch = fixtures::test_arch(2);
  const std::string path = ::testing::TempDir() + "ftmc_roundtrip.ftmc";
  {
    std::ofstream out(path);
    io::write_system(out, arch, apps);
  }
  const auto spec = io::parse_system_file(path);
  EXPECT_EQ(spec.apps.task_count(), apps.task_count());
  EXPECT_THROW(io::parse_system_file(path + ".does-not-exist"),
               std::runtime_error);
}

// A speed factor the text format accepts but whose scaled execution times do
// not fit in model::Time must fail `analyze` and `simulate` with a named
// overflow error (it used to report a 0us WCRT and segfault, respectively).
/// examples/systems/demo.ftmc as text, for mutation tests.
std::string demo_text() {
  std::ifstream in(std::string(FTMC_SOURCE_DIR) +
                   "/examples/systems/demo.ftmc");
  std::stringstream demo;
  demo << in.rdbuf();
  return demo.str();
}

TEST(TextFormat, SpeedOverflowFailsAnalyzeAndSimulate) {
  std::string text = demo_text();
  const std::string nominal = "fault_rate 2e-9 speed 1.0 }";
  const std::size_t at = text.find(nominal, text.find("processor big0"));
  ASSERT_NE(at, std::string::npos);
  text.replace(at, nominal.size(),
               "fault_rate 2e-9 speed 9223372036854775807 }");
  const auto spec = parse_system_string(text);
  ASSERT_TRUE(spec.candidate.has_value());
  const core::Candidate& candidate = *spec.candidate;

  const auto expect_named_overflow = [](const auto& run) {
    try {
      run();
      FAIL() << "expected std::overflow_error";
    } catch (const std::overflow_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("'big0'"), std::string::npos) << what;
      EXPECT_NE(what.find("overflows model::Time"), std::string::npos)
          << what;
    }
  };
  const sched::HolisticAnalysis backend;
  const core::Evaluator evaluator(spec.arch, spec.apps, backend);
  expect_named_overflow([&] { (void)evaluator.evaluate(candidate); });

  const auto system = hardening::apply_hardening(
      spec.apps, candidate.plan, candidate.base_mapping,
      spec.arch.processor_count());
  sim::MonteCarloOptions options;
  options.profiles = 4;
  options.threads = 1;
  expect_named_overflow([&] {
    (void)sim::monte_carlo_wcrt(spec.arch, system, candidate.drop,
                                sched::assign_priorities(system.apps),
                                options);
  });
}

// A 99999999999ms period stretches the hyperperiod to 2e16us, whose job
// table would hold about 1e11 jobs: more than the event budget lets a run
// process, so simulation refuses it before allocating the table.
TEST(TextFormat, HugeHyperperiodFailsSimulateUpFront) {
  std::string text = demo_text();
  const std::string nominal = "period 100ms";
  const std::size_t at = text.find(nominal);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, nominal.size(), "period 99999999999ms");
  const auto spec = parse_system_string(text);
  ASSERT_TRUE(spec.candidate.has_value());
  const core::Candidate& candidate = *spec.candidate;
  const auto system = hardening::apply_hardening(
      spec.apps, candidate.plan, candidate.base_mapping,
      spec.arch.processor_count());
  sim::MonteCarloOptions options;
  options.profiles = 1;
  options.threads = 1;
  try {
    (void)sim::monte_carlo_wcrt(spec.arch, system, candidate.drop,
                                sched::assign_priorities(system.apps),
                                options);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("exceed the event budget"), std::string::npos)
        << what;
  }

  // A hyperperiod that fits in model::Time, simulated for a horizon that
  // does not.
  std::string long_periods = demo_text();
  for (std::size_t at = long_periods.find("period ");
       at != std::string::npos; at = long_periods.find("period ", at + 1))
    long_periods.replace(at, long_periods.find('\n', at) - at,
                         "period 4000000000000000000us");
  const auto long_spec = parse_system_string(long_periods);
  const auto long_system = hardening::apply_hardening(
      long_spec.apps, candidate.plan, candidate.base_mapping,
      long_spec.arch.processor_count());
  options.hyperperiods = 3;
  try {
    (void)sim::monte_carlo_wcrt(long_spec.arch, long_system, candidate.drop,
                                sched::assign_priorities(long_system.apps),
                                options);
    FAIL() << "expected std::overflow_error";
  } catch (const std::overflow_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("overflow model::Time"), std::string::npos) << what;
  }

  // Coprime periods whose least common multiple does not fit in
  // model::Time fail with a named error instead of wrapping.
  std::string coprime = demo_text();
  for (const char* period : {"period 4000000001us", "period 4000000003us"})
    coprime.replace(coprime.find("period 200ms"), 12, period);
  try {
    (void)parse_system_string(coprime);
    FAIL() << "expected an overflow error";
  } catch (const std::exception& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("overflows model::Time"), std::string::npos) << what;
  }
}

TEST(TextFormat, CandidateMustComeLast) {
  const std::string text =
      "platform { processor p { } }\n"
      "candidate { }\n"
      "application a { period 1ms droppable 1 task t { wcet 1ms } }";
  EXPECT_THROW(parse_system_string(text), ParseError);
}

}  // namespace
