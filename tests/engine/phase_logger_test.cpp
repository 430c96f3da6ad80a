#include "engine/phase_logger.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace g10::engine {
namespace {

trace::PathRef path(std::string_view type, std::int64_t index) {
  return trace::PathRef{}.child(type, index);
}

TEST(PhaseLoggerTest, BalancedBeginEnd) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, -1);
  log.end(path("A", 0), 10, -1);
  const auto events = log.take_phase_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, trace::PhaseEventRecord::Kind::Begin);
  EXPECT_EQ(events[1].kind, trace::PhaseEventRecord::Kind::End);
  EXPECT_EQ(events[1].time, 10);
}

TEST(PhaseLoggerTest, RejectsDoubleBegin) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, -1);
  EXPECT_THROW(log.begin(path("A", 0), 5, -1), CheckError);
}

TEST(PhaseLoggerTest, RejectsEndWithoutBegin) {
  PhaseLogger log;
  EXPECT_THROW(log.end(path("A", 0), 5, -1), CheckError);
}

TEST(PhaseLoggerTest, RejectsEndBeforeBegin) {
  PhaseLogger log;
  log.begin(path("A", 0), 10, -1);
  EXPECT_THROW(log.end(path("A", 0), 5, -1), CheckError);
}

TEST(PhaseLoggerTest, RejectsTakeWithOpenPhases) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, -1);
  EXPECT_THROW(log.take_phase_events(), CheckError);
}

TEST(PhaseLoggerTest, BlockEventsRecorded) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, 2);
  const trace::Symbol gc = trace::SymbolTable::global().intern("GC");
  log.block(gc, path("A", 0), 3, 7, 2);
  log.block(gc, path("A", 0), 7, 7, 2);  // zero length: dropped
  log.end(path("A", 0), 10, 2);
  const auto blocks = log.take_blocking_events();
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(trace::SymbolTable::global().name(blocks[0].resource), "GC");
  EXPECT_EQ(blocks[0].begin, 3);
  EXPECT_EQ(blocks[0].end, 7);
  EXPECT_EQ(blocks[0].machine, 2);
}

TEST(PhaseLoggerTest, SamePathCanReopenAfterEnd) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, -1);
  log.end(path("A", 0), 5, -1);
  // Re-opening the same path is rejected only while open; after end it is a
  // duplicate instance and the engines never do it — but the logger treats
  // path uniqueness per open set.
  log.begin(path("A", 1), 5, -1);
  log.end(path("A", 1), 6, -1);
  EXPECT_EQ(log.take_phase_events().size(), 4u);
}

}  // namespace
}  // namespace g10::engine
