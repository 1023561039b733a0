#include "common/str_util.h"

#include <gtest/gtest.h>

namespace cote {
namespace {

TEST(StrUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d", 42), "x=42");
  EXPECT_EQ(StrFormat("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrUtilTest, JoinVariants) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrUtilTest, ToLower) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToLower("abc_123"), "abc_123");
}

TEST(StrUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

}  // namespace
}  // namespace cote
