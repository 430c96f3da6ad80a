// Cases for parse_phase_path, the parser of rendered phase paths
// ("Type.idx/Type.idx/..."), which returns an interned PathRef.
#include "trace/symbol_table.hpp"

#include <gtest/gtest.h>

namespace g10::trace {
namespace {

TEST(PhasePathTest, ParseRoundTrip) {
  const auto parsed = parse_phase_path("Job.0/Superstep.3/Thread.12");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_string(), "Job.0/Superstep.3/Thread.12");
  EXPECT_EQ(parsed->depth(), 3u);
  EXPECT_EQ(SymbolTable::global().name(parsed->leaf().type), "Thread");
  EXPECT_EQ(parsed->leaf().index, 12);
  EXPECT_EQ(parsed->parent().to_string(), "Job.0/Superstep.3");
}

TEST(PhasePathTest, ParseSingleElement) {
  const auto parsed = parse_phase_path("Job.0");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->depth(), 1u);
  EXPECT_EQ(*parsed, PathRef{}.child("Job", 0));
}

TEST(PhasePathTest, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_phase_path("").has_value());
  EXPECT_FALSE(parse_phase_path("Job").has_value());
  EXPECT_FALSE(parse_phase_path("Job.").has_value());
  EXPECT_FALSE(parse_phase_path(".0").has_value());
  EXPECT_FALSE(parse_phase_path("Job.-1").has_value());
  EXPECT_FALSE(parse_phase_path("Job.x").has_value());
  EXPECT_FALSE(parse_phase_path("Job.0//B.1").has_value());
  EXPECT_FALSE(parse_phase_path("/Job.0").has_value());
  EXPECT_FALSE(parse_phase_path("Job.0/").has_value());
}

TEST(PhasePathTest, TypeNamesMayContainDots) {
  // The last dot separates the index.
  const auto parsed = parse_phase_path("Job.0/My.Phase.3");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->depth(), 2u);
  EXPECT_EQ(SymbolTable::global().name(parsed->leaf().type), "My.Phase");
  EXPECT_EQ(parsed->leaf().index, 3);
  EXPECT_EQ(parsed->to_string(), "Job.0/My.Phase.3");
}

TEST(PhasePathTest, ParsedPathsCompareByContent) {
  const auto a = parse_phase_path("A.0");
  const auto b = parse_phase_path("A.0");
  const auto c = parse_phase_path("A.1");
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->hash(), b->hash());
  EXPECT_FALSE(*a == *c);
}

}  // namespace
}  // namespace g10::trace
