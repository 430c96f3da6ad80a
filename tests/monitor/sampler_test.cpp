#include "monitor/sampler.hpp"

#include <gtest/gtest.h>

#include "sim/fault_injector.hpp"

namespace g10::monitor {
namespace {

trace::Symbol sym(std::string_view name) {
  return trace::SymbolTable::global().intern(name);
}

trace::GroundTruthSeries make_series() {
  trace::GroundTruthSeries gt;
  gt.resource = sym("cpu");
  gt.machine = 0;
  gt.capacity = 4.0;
  gt.series.set(0, 2.0);
  gt.series.set(100, 4.0);
  gt.series.set(200, 0.0);
  return gt;
}

TEST(SamplerTest, SamplesAverageRates) {
  const std::vector<trace::GroundTruthSeries> series{make_series()};
  const auto samples = sample_ground_truth(series, 100, 300);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].time, 100);
  EXPECT_DOUBLE_EQ(samples[0].value, 2.0);
  EXPECT_EQ(samples[1].time, 200);
  EXPECT_DOUBLE_EQ(samples[1].value, 4.0);
  EXPECT_DOUBLE_EQ(samples[2].value, 0.0);
  EXPECT_EQ(trace::SymbolTable::global().name(samples[0].resource), "cpu");
  EXPECT_EQ(samples[0].machine, 0);
}

TEST(SamplerTest, ClipsFinalWindowAtEnd) {
  const std::vector<trace::GroundTruthSeries> series{make_series()};
  const auto samples = sample_ground_truth(series, 100, 250);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[2].time, 250);
  // Window (200, 250]: value 0.
  EXPECT_DOUBLE_EQ(samples[2].value, 0.0);
}

TEST(SamplerTest, MultipleSeriesAllSampled) {
  auto a = make_series();
  auto b = make_series();
  b.resource = sym("network");
  b.machine = 1;
  const auto samples = sample_ground_truth({a, b}, 100, 200);
  EXPECT_EQ(samples.size(), 4u);
}

TEST(DownsampleTest, FactorOneIsIdentity) {
  std::vector<trace::MonitoringSampleRecord> samples{
      {sym("cpu"), 0, 100, 1.0}, {sym("cpu"), 0, 200, 3.0}};
  const auto out = downsample(samples, 1);
  EXPECT_EQ(out.size(), 2u);
}

TEST(DownsampleTest, MergesAverages) {
  std::vector<trace::MonitoringSampleRecord> samples{
      {sym("cpu"), 0, 100, 1.0},
      {sym("cpu"), 0, 200, 3.0},
      {sym("cpu"), 0, 300, 5.0},
      {sym("cpu"), 0, 400, 7.0}};
  const auto out = downsample(samples, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].time, 200);
  EXPECT_DOUBLE_EQ(out[0].value, 2.0);
  EXPECT_EQ(out[1].time, 400);
  EXPECT_DOUBLE_EQ(out[1].value, 6.0);
}

TEST(DownsampleTest, TrailingPartialGroupAveraged) {
  std::vector<trace::MonitoringSampleRecord> samples{
      {sym("cpu"), 0, 100, 2.0},
      {sym("cpu"), 0, 200, 4.0},
      {sym("cpu"), 0, 300, 9.0}};
  const auto out = downsample(samples, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].value, 3.0);
  EXPECT_DOUBLE_EQ(out[1].value, 9.0);
}

TEST(DownsampleTest, StreamsAreSeparated) {
  std::vector<trace::MonitoringSampleRecord> samples{
      {sym("cpu"), 0, 100, 1.0},
      {sym("cpu"), 1, 100, 10.0},
      {sym("cpu"), 0, 200, 3.0},
      {sym("cpu"), 1, 200, 30.0}};
  const auto out = downsample(samples, 2);
  ASSERT_EQ(out.size(), 2u);
  // One merged sample per machine.
  double m0 = 0.0;
  double m1 = 0.0;
  for (const auto& s : out) {
    (s.machine == 0 ? m0 : m1) = s.value;
  }
  EXPECT_DOUBLE_EQ(m0, 2.0);
  EXPECT_DOUBLE_EQ(m1, 20.0);
}

TEST(SamplerDownsampleConsistencyTest, DownsampledEqualsCoarseSampling) {
  // downsample(sample(fine), k) == sample(coarse) when windows align.
  const std::vector<trace::GroundTruthSeries> series{make_series()};
  const auto fine = sample_ground_truth(series, 50, 400);
  const auto merged = downsample(fine, 2);
  const auto coarse = sample_ground_truth(series, 100, 400);
  ASSERT_EQ(merged.size(), coarse.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].time, coarse[i].time);
    EXPECT_NEAR(merged[i].value, coarse[i].value, 1e-12);
  }
}

TEST(SamplerDropoutTest, DropsSamplesOnlyInsideWindows) {
  // Machine 0's monitoring daemon is down during [100ms, 200ms).
  const auto spec = sim::FaultSpec::parse("drop:w0@100ms+100ms");
  ASSERT_TRUE(spec.has_value());
  sim::FaultInjector faults(*spec, 1);
  faults.resolve(kSecond);

  std::vector<trace::MonitoringSampleRecord> samples{
      {sym("cpu"), 0, 50 * kMillisecond, 1.0},
      {sym("cpu"), 0, 150 * kMillisecond, 2.0},   // dropped
      {sym("cpu"), 1, 150 * kMillisecond, 3.0},   // other machine: kept
      {sym("cpu"), 0, 250 * kMillisecond, 4.0}};
  const auto kept = apply_sampler_dropout(samples, faults);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_DOUBLE_EQ(kept[0].value, 1.0);
  EXPECT_DOUBLE_EQ(kept[1].value, 3.0);
  EXPECT_DOUBLE_EQ(kept[2].value, 4.0);
}

}  // namespace
}  // namespace g10::monitor
