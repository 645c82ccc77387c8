#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hex.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"

namespace jrsnd {
namespace {

TEST(Hex, EncodeKnownBytes) {
  const std::vector<std::uint8_t> bytes = {0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(bytes), "00deadbeefff");
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Hex, DecodeUpperAndLowerCase) {
  const std::vector<std::uint8_t> expected = {0xab, 0xcd};
  EXPECT_EQ(from_hex("abcd"), expected);
  EXPECT_EQ(from_hex("ABCD"), expected);
  EXPECT_EQ(from_hex("AbCd"), expected);
}

TEST(Hex, RoundTrip) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(from_hex(to_hex(bytes)), bytes);
}

TEST(Hex, RejectsOddLength) { EXPECT_THROW((void)from_hex("abc"), std::invalid_argument); }

TEST(Hex, RejectsNonHexChars) { EXPECT_THROW((void)from_hex("zz"), std::invalid_argument); }

TEST(Logging, LevelIsSettable) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  set_log_level(before);
}

TEST(Logging, SuppressedLevelsDoNotCrash) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Off);
  JRSND_INFO("test") << "should be suppressed " << 42;
  JRSND_ERROR("test") << "also suppressed";
  set_log_level(before);
}

TEST(Logging, ParseLogLevelNamesAndCase) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_FALSE(parse_log_level("loud").has_value());
  EXPECT_FALSE(parse_log_level("").has_value());
}

TEST(Logging, PluggableSinkReceivesFilteredLines) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Warn);
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&captured](LogLevel level, const std::string& tag, const std::string& msg) {
    captured.emplace_back(level, tag + ": " + msg);
  });
  JRSND_INFO("tag") << "filtered out";
  JRSND_WARN("tag") << "kept " << 7;
  set_log_sink(nullptr);
  set_log_level(before);

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].first, LogLevel::Warn);
  EXPECT_EQ(captured[0].second, "tag: kept 7");
}

TEST(Logging, TimestampToggleIsObservable) {
  EXPECT_FALSE(log_timestamps());  // default off: byte-stable output
  set_log_timestamps(true);
  EXPECT_TRUE(log_timestamps());
  set_log_timestamps(false);
  EXPECT_FALSE(log_timestamps());
}

TEST(Types, DurationArithmetic) {
  const Duration a = seconds(1.5);
  const Duration b = millis(500);
  EXPECT_DOUBLE_EQ((a + b).seconds(), 2.0);
  EXPECT_DOUBLE_EQ((a - b).seconds(), 1.0);
  EXPECT_DOUBLE_EQ((a * 2.0).seconds(), 3.0);
  EXPECT_DOUBLE_EQ(a / b, 3.0);
  EXPECT_DOUBLE_EQ(b.millis(), 500.0);
  EXPECT_DOUBLE_EQ(micros(1500).millis(), 1.5);
}

TEST(Types, TimePointOrderingAndArithmetic) {
  const TimePoint t0{0.0};
  const TimePoint t1 = t0 + seconds(2.0);
  EXPECT_LT(t0, t1);
  EXPECT_DOUBLE_EQ((t1 - t0).seconds(), 2.0);
  EXPECT_DOUBLE_EQ((t1 - seconds(0.5)).seconds(), 1.5);
}

TEST(Types, StrongIdsCompare) {
  const NodeId a = node_id(1);
  const NodeId b = node_id(2);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_EQ(raw(a), 1u);
  EXPECT_EQ(raw(code_id(7)), 7u);
}

// One table type: ids key sorted vectors, so hashing them must not compile.
static_assert(!std::is_default_constructible_v<std::hash<NodeId>>);
static_assert(!std::is_default_constructible_v<std::hash<CodeId>>);
static_assert(!std::is_copy_constructible_v<std::hash<NodeId>>);

}  // namespace
}  // namespace jrsnd
