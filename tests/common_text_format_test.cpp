#include "src/common/text_format.h"

#include <limits>

#include <gtest/gtest.h>

namespace ampere {
namespace {

TEST(FormatDoubleTest, PinsShortestRoundTripForms) {
  EXPECT_EQ(FormatDouble(0.1), "0.1");
  EXPECT_EQ(FormatDouble(-0.0), "-0");
  EXPECT_EQ(FormatDouble(1e300), "1e+300");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::denorm_min()),
            "5e-324");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(FormatDouble(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(CsvEscapeTest, QuotesOnlyFieldsThatNeedIt) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("two\nlines"), "\"two\nlines\"");
}

}  // namespace
}  // namespace ampere
