// Strict number parsing (common/parse.hpp) and the JRSND_* knob parses built
// on it: every malformed form is rejected, never truncated or wrapped.
#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"

namespace jrsnd {
namespace {

TEST(StrictParse, U32AcceptsWholeInRangeNumbers) {
  EXPECT_EQ(parse_u32("0"), 0u);
  EXPECT_EQ(parse_u32("2000"), 2000u);
  EXPECT_EQ(parse_u32("007"), 7u);
  EXPECT_EQ(parse_u32("4294967295"), 4294967295u);
}

TEST(StrictParse, U32RejectsTrailingJunk) {
  EXPECT_FALSE(parse_u32("1x").has_value());
  EXPECT_FALSE(parse_u32("12 ").has_value());
  EXPECT_FALSE(parse_u32("1.5").has_value());
}

TEST(StrictParse, U32RejectsNonNumbers) {
  EXPECT_FALSE(parse_u32("abc").has_value());
  EXPECT_FALSE(parse_u32("").has_value());
  EXPECT_FALSE(parse_u32(" 1").has_value());
}

TEST(StrictParse, U32RejectsSigns) {
  EXPECT_FALSE(parse_u32("-1").has_value());
  EXPECT_FALSE(parse_u32("+1").has_value());
  EXPECT_FALSE(parse_u32("-0").has_value());
}

TEST(StrictParse, U32RejectsOutOfRange) {
  EXPECT_FALSE(parse_u32("4294967296").has_value());
  EXPECT_FALSE(parse_u32("99999999999999999999").has_value());
}

TEST(StrictParse, U64CoversTheFullRangeAndNoMore) {
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("7seed").has_value());
}

TEST(StrictParse, DoubleAcceptsFiniteDecimalAndScientific) {
  EXPECT_EQ(parse_double("0.5"), 0.5);
  EXPECT_EQ(parse_double("-2"), -2.0);
  EXPECT_EQ(parse_double("1e-3"), 1e-3);
  EXPECT_EQ(parse_double("3"), 3.0);
}

TEST(StrictParse, DoubleRejectsJunkAndNonFinite) {
  EXPECT_FALSE(parse_double("x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("0.5x").has_value());
  EXPECT_FALSE(parse_double("+0.5").has_value());
  EXPECT_FALSE(parse_double(" 0.5").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());
}

// --- JRSND_THREADS ----------------------------------------------------------

TEST(EnvKnobs, ThreadsRejectsTrailingJunk) {
  EXPECT_FALSE(ThreadPool::parse_thread_count("4abc").has_value());
}

TEST(EnvKnobs, ThreadsRejectsNonNumber) {
  EXPECT_FALSE(ThreadPool::parse_thread_count("abc").has_value());
}

TEST(EnvKnobs, ThreadsRejectsZero) {
  EXPECT_FALSE(ThreadPool::parse_thread_count("0").has_value());
}

TEST(EnvKnobs, ThreadsRejectsNegative) {
  EXPECT_FALSE(ThreadPool::parse_thread_count("-2").has_value());
}

TEST(EnvKnobs, ThreadsAcceptsCountsAndClampsAt256) {
  EXPECT_EQ(ThreadPool::parse_thread_count("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_thread_count("8"), 8u);
  EXPECT_EQ(ThreadPool::parse_thread_count("100000"), 256u);
}

TEST(EnvKnobs, MalformedThreadsWarnsNamingVariableAndValue) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Warn);
  std::vector<std::string> captured;
  set_log_sink([&captured](LogLevel, const std::string& tag, const std::string& msg) {
    captured.push_back(tag + ": " + msg);
  });
  ASSERT_EQ(setenv("JRSND_THREADS", "4abc", 1), 0);
  const std::size_t threads = ThreadPool::default_thread_count();
  ASSERT_EQ(unsetenv("JRSND_THREADS"), 0);
  set_log_sink(nullptr);
  set_log_level(before);

  EXPECT_EQ(threads, ThreadPool::default_thread_count());  // the unset fallback
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_NE(captured[0].find("JRSND_THREADS"), std::string::npos) << captured[0];
  EXPECT_NE(captured[0].find("'4abc'"), std::string::npos) << captured[0];
  EXPECT_NE(captured[0].find("integer >= 1"), std::string::npos) << captured[0];
}

// --- JRSND_LOG_LEVEL --------------------------------------------------------

TEST(EnvKnobs, LogLevelRejectsUnknownName) {
  EXPECT_FALSE(parse_log_level("verbose").has_value());
}

TEST(EnvKnobs, LogLevelRejectsNumericLevel) {
  EXPECT_FALSE(parse_log_level("3").has_value());
}

}  // namespace
}  // namespace jrsnd
