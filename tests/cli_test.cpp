// Strict numeric flag parsing shared by every CLI (harness/cli.hpp).
#include <gtest/gtest.h>

#include <iostream>

#include "harness/cli.hpp"

namespace aqueduct::harness {
namespace {

TEST(CliParse, U64AcceptsOnlyWholeUnsignedNumbers) {
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_FALSE(parse_u64("abc"));
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64("-1"));  // would wrap to 2^64-1 via std::stoull
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64(" 7"));
  EXPECT_FALSE(parse_u64("+7"));
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
}

TEST(CliParse, DoubleAcceptsOnlyWholeFiniteNumbers) {
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("100"), 100.0);
  EXPECT_FALSE(parse_double("abc"));
  EXPECT_FALSE(parse_double("12x"));
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double(" 1"));
  EXPECT_FALSE(parse_double("inf"));
  EXPECT_FALSE(parse_double("nan"));
  EXPECT_FALSE(parse_double("1e999"));  // out of range
}

TEST(CliParseDeathTest, RequireExitsTwoWithUsageOnMalformedValue) {
  const auto usage = [] { std::cerr << "usage: prog\n"; };
  EXPECT_EQ(require_u64("--seeds", "7", usage), 7u);
  EXPECT_EQ(require_double("--epsilon", "0.5", usage), 0.5);
  EXPECT_EXIT(require_u64("--seeds", "-1", usage),
              testing::ExitedWithCode(2),
              "flag --seeds needs a non-negative integer, got '-1'\n"
              "usage: prog");
  EXPECT_EXIT(require_double("--epsilon", "12x", usage),
              testing::ExitedWithCode(2),
              "flag --epsilon needs a finite number");
}

}  // namespace
}  // namespace aqueduct::harness
