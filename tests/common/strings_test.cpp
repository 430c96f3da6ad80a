#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace g10 {
namespace {

TEST(SplitTest, BasicSplit) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = split(",a,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoDelimiterYieldsWhole) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_TRUE(starts_with("hello", ""));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_FALSE(starts_with("hello", "el"));
}

TEST(ParseIntTest, ValidInputs) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_EQ(parse_int(" 13 ").value(), 13);
}

TEST(ParseIntTest, RejectsGarbage) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("x12").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
}

TEST(ParseIntAtLeastTest, AcceptsOnlyLoThroughIntMax) {
  int out = -5;
  EXPECT_TRUE(parse_int_at_least("1", 1, out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(parse_int_at_least("0", 0, out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(parse_int_at_least("2147483647", 1, out));
  EXPECT_EQ(out, 2147483647);
  // Below lo, one past INT_MAX, values that used to wrap to small ints,
  // and garbage are all rejected without touching `out`.
  out = 7;
  for (const char* bad : {"0", "-1", "2147483648", "4294967298",
                          "4294967296", "4x"}) {
    EXPECT_FALSE(parse_int_at_least(bad, 1, out)) << bad;
  }
  EXPECT_EQ(out, 7);
}

TEST(ParseDoubleTest, ValidInputs) {
  EXPECT_DOUBLE_EQ(parse_double("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-2e3").value(), -2000.0);
  EXPECT_DOUBLE_EQ(parse_double("0").value(), 0.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("1.5abc").has_value());
}

TEST(ParseDoubleTest, RejectsNanAndInfinities) {
  for (const char* text : {"nan", "NaN", "-nan", "nan(0x1)", "inf", "-inf",
                           "INF", "infinity", "-Infinity", " inf "}) {
    EXPECT_FALSE(parse_double(text).has_value()) << text;
  }
  // Overflowing literals were already rejected; the largest finite and the
  // smallest subnormal values still parse.
  EXPECT_FALSE(parse_double("1e400").has_value());
  EXPECT_TRUE(parse_double("1.7976931348623157e308").has_value());
  EXPECT_TRUE(parse_double("5e-324").has_value());
}

TEST(FormatTest, FixedAndPercent) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 0), "-1");
  EXPECT_EQ(format_percent(0.1234), "12.3%");
  EXPECT_EQ(format_percent(0.1234, 2), "12.34%");
}

}  // namespace
}  // namespace g10
