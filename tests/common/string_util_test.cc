#include "common/string_util.h"

#include <gtest/gtest.h>

namespace dmlscale {
namespace {

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-flag", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(ParseInt64Test, ValidInput) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64(" 13 ").value(), 13);
}

TEST(ParseInt64Test, RejectsGarbage) {
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
}

TEST(ParseInt64Test, RejectsOverflow) {
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(ParseDoubleTest, ValidInput) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("7").value(), 7.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("2.5z").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159265, 3), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 6), "2");
}

TEST(HumanCountTest, Suffixes) {
  EXPECT_EQ(HumanCount(12e6), "12M");
  EXPECT_EQ(HumanCount(5e9), "5G");
  EXPECT_EQ(HumanCount(1.5e3), "1.5K");
  EXPECT_EQ(HumanCount(2e12), "2T");
  EXPECT_EQ(HumanCount(999.0), "999");
}

}  // namespace
}  // namespace dmlscale
