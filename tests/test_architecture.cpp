#include "ftmc/model/architecture.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

using ftmc::model::Architecture;
using ftmc::model::ArchitectureBuilder;
using ftmc::model::Processor;
using ftmc::model::ProcessorId;

Processor pe(const std::string& name) {
  return Processor{name, 0, 10.0, 20.0, 1e-9, 1.0};
}

TEST(Architecture, BasicConstruction) {
  const Architecture arch({pe("a"), pe("b")}, 4.0);
  EXPECT_EQ(arch.processor_count(), 2u);
  EXPECT_EQ(arch.processor(ProcessorId{0}).name, "a");
  EXPECT_EQ(arch.processor(ProcessorId{1}).name, "b");
  EXPECT_DOUBLE_EQ(arch.bandwidth(), 4.0);
}

TEST(Architecture, RejectsEmpty) {
  EXPECT_THROW(Architecture({}, 1.0), std::invalid_argument);
}

TEST(Architecture, RejectsBadBandwidth) {
  EXPECT_THROW(Architecture({pe("a")}, 0.0), std::invalid_argument);
  EXPECT_THROW(Architecture({pe("a")}, -1.0), std::invalid_argument);
  EXPECT_THROW(Architecture({pe("a")}, kNaN), std::invalid_argument);
  EXPECT_THROW(Architecture({pe("a")}, kInf), std::invalid_argument);
}

TEST(Architecture, RejectsDuplicateNames) {
  EXPECT_THROW(Architecture({pe("a"), pe("a")}, 1.0), std::invalid_argument);
}

TEST(Architecture, RejectsUnnamedProcessor) {
  EXPECT_THROW(Architecture({pe("")}, 1.0), std::invalid_argument);
}

TEST(Architecture, RejectsNegativePower) {
  Processor bad = pe("a");
  bad.static_power = -1.0;
  EXPECT_THROW(Architecture({bad}, 1.0), std::invalid_argument);
  bad = pe("a");
  bad.dynamic_power = -0.5;
  EXPECT_THROW(Architecture({bad}, 1.0), std::invalid_argument);
  bad.dynamic_power = kNaN;
  EXPECT_THROW(Architecture({bad}, 1.0), std::invalid_argument);
  bad = pe("a");
  bad.static_power = kInf;
  EXPECT_THROW(Architecture({bad}, 1.0), std::invalid_argument);
}

TEST(Architecture, RejectsNegativeFaultRate) {
  Processor bad = pe("a");
  bad.fault_rate = -1e-9;
  EXPECT_THROW(Architecture({bad}, 1.0), std::invalid_argument);
  bad.fault_rate = kNaN;
  EXPECT_THROW(Architecture({bad}, 1.0), std::invalid_argument);
  bad.fault_rate = kInf;
  EXPECT_THROW(Architecture({bad}, 1.0), std::invalid_argument);
}

TEST(Architecture, RejectsNonPositiveSpeed) {
  Processor bad = pe("a");
  bad.speed_factor = 0.0;
  EXPECT_THROW(Architecture({bad}, 1.0), std::invalid_argument);
  bad.speed_factor = kNaN;
  EXPECT_THROW(Architecture({bad}, 1.0), std::invalid_argument);
  bad.speed_factor = kInf;
  EXPECT_THROW(Architecture({bad}, 1.0), std::invalid_argument);
}

TEST(Architecture, ProcessorOutOfRangeThrows) {
  const Architecture arch({pe("a")}, 1.0);
  EXPECT_THROW(arch.processor(ProcessorId{1}), std::out_of_range);
}

TEST(Architecture, TransferTimeRoundsUp) {
  const Architecture arch({pe("a"), pe("b")}, 4.0);
  EXPECT_EQ(arch.transfer_time(0), 0);
  EXPECT_EQ(arch.transfer_time(1), 1);   // ceil(1/4)
  EXPECT_EQ(arch.transfer_time(4), 1);
  EXPECT_EQ(arch.transfer_time(5), 2);
  EXPECT_EQ(arch.transfer_time(400), 100);
  // A latency beyond Time's range is an error, not a wrapped cast.
  const Architecture slow({pe("a"), pe("b")}, 1e-300);
  EXPECT_THROW((void)slow.transfer_time(1), std::overflow_error);
}

TEST(ArchitectureBuilder, AddsPrototypesWithSuffixes) {
  const Architecture arch =
      ArchitectureBuilder{}.add_processors(pe("core"), 3).bandwidth(2.0).build();
  EXPECT_EQ(arch.processor_count(), 3u);
  EXPECT_EQ(arch.processor(ProcessorId{0}).name, "core_0");
  EXPECT_EQ(arch.processor(ProcessorId{2}).name, "core_2");
}

TEST(ArchitectureBuilder, MixedAdds) {
  const Architecture arch = ArchitectureBuilder{}
                                .add_processor(pe("x"))
                                .add_processors(pe("y"), 2)
                                .build();
  EXPECT_EQ(arch.processor_count(), 3u);
  EXPECT_EQ(arch.processor(ProcessorId{1}).name, "y_0");
}

}  // namespace
