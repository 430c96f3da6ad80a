#include "grade10/trace/resource_trace.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "test_util.hpp"

namespace g10::core {
namespace {

using testing::make_sample;

ResourceModel simple_resources() {
  ResourceModel m;
  m.add_consumable("cpu", 4.0);
  m.add_consumable("network", 100.0);
  m.add_blocking("GC");
  return m;
}

TEST(ResourceTraceTest, GroupsByResourceAndMachine) {
  const ResourceModel m = simple_resources();
  std::vector<trace::MonitoringSampleRecord> samples{
      make_sample("cpu", 0, 100, 1.0),
      make_sample("cpu", 0, 200, 2.0),
      make_sample("cpu", 1, 100, 3.0),
      make_sample("network", 0, 100, 50.0)};
  const auto trace = ResourceTrace::build(m, samples);
  EXPECT_EQ(trace.series().size(), 3u);
  const ResourceSeries* cpu0 = trace.find(m.find("cpu"), 0);
  ASSERT_NE(cpu0, nullptr);
  ASSERT_EQ(cpu0->measurements.size(), 2u);
  EXPECT_EQ(cpu0->measurements[0].begin, 0);
  EXPECT_EQ(cpu0->measurements[0].end, 100);
  EXPECT_DOUBLE_EQ(cpu0->measurements[0].value, 1.0);
  EXPECT_EQ(cpu0->measurements[1].begin, 100);
  EXPECT_EQ(cpu0->measurements[1].end, 200);
}

TEST(ResourceTraceTest, SortsOutOfOrderSamples) {
  const ResourceModel m = simple_resources();
  std::vector<trace::MonitoringSampleRecord> samples{
      make_sample("cpu", 0, 200, 2.0), make_sample("cpu", 0, 100, 1.0)};
  const auto trace = ResourceTrace::build(m, samples);
  const ResourceSeries* cpu = trace.find(m.find("cpu"), 0);
  ASSERT_NE(cpu, nullptr);
  EXPECT_DOUBLE_EQ(cpu->measurements[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cpu->measurements[1].value, 2.0);
}

TEST(ResourceTraceTest, RejectsDuplicateTimes) {
  const ResourceModel m = simple_resources();
  std::vector<trace::MonitoringSampleRecord> samples{
      make_sample("cpu", 0, 100, 1.0), make_sample("cpu", 0, 100, 2.0)};
  EXPECT_THROW(ResourceTrace::build(m, samples), CheckError);
}

TEST(ResourceTraceTest, RejectsUnknownOrBlockingResources) {
  const ResourceModel m = simple_resources();
  EXPECT_THROW(ResourceTrace::build(
                   m, std::vector<trace::MonitoringSampleRecord>{
                          make_sample("mystery", 0, 100, 1.0)}),
               CheckError);
  EXPECT_THROW(ResourceTrace::build(
                   m, std::vector<trace::MonitoringSampleRecord>{
                          make_sample("GC", 0, 100, 1.0)}),
               CheckError);
}

TEST(ResourceTraceTest, FindMissingReturnsNull) {
  const ResourceModel m = simple_resources();
  const auto trace =
      ResourceTrace::build(m, std::vector<trace::MonitoringSampleRecord>{});
  EXPECT_EQ(trace.find(0, 0), nullptr);
}

}  // namespace
}  // namespace g10::core
