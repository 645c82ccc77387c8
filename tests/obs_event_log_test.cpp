#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/sinks.hpp"

namespace jrsnd::obs {
namespace {

/// Collects everything written to it, for asserting on fan-out.
class CaptureSink final : public EventSink {
 public:
  void write(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

TEST(TraceEvent, WithAppendsAndFieldLooksUp) {
  TraceEvent ev("dndp.pair", Severity::Warn);
  ev.with("a", std::uint64_t{4}).with("ok", false).with("rate", 0.5);
  EXPECT_EQ(ev.name, "dndp.pair");
  EXPECT_EQ(ev.severity, Severity::Warn);
  ASSERT_NE(ev.field("a"), nullptr);
  EXPECT_EQ(std::get<std::uint64_t>(*ev.field("a")), 4u);
  EXPECT_EQ(std::get<bool>(*ev.field("ok")), false);
  EXPECT_EQ(ev.field("missing"), nullptr);
}

TEST(SeverityNames, RoundTrip) {
  for (const Severity sev : {Severity::Debug, Severity::Info, Severity::Warn, Severity::Error}) {
    const auto parsed = parse_severity(severity_name(sev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, sev);
  }
  EXPECT_FALSE(parse_severity("loud").has_value());
}

TEST(EventLog, EmitStampsSequenceAndSimTime) {
  EventLog log;
  auto sink = std::make_shared<CaptureSink>();
  log.attach(sink);
  log.set_sim_time(12.5);

  log.emit(TraceEvent("first"));
  TraceEvent pre_stamped("second");
  pre_stamped.t = 3.0;  // carries its own time: emit must not overwrite it
  log.emit(std::move(pre_stamped));

  ASSERT_EQ(sink->events.size(), 2u);
  EXPECT_EQ(sink->events[0].seq, 1u);
  EXPECT_DOUBLE_EQ(sink->events[0].t, 12.5);
  EXPECT_EQ(sink->events[1].seq, 2u);
  EXPECT_DOUBLE_EQ(sink->events[1].t, 3.0);
  EXPECT_EQ(log.emitted(), 2u);
}

TEST(EventLog, DetachAllStopsFanOut) {
  EventLog log;
  auto sink = std::make_shared<CaptureSink>();
  log.attach(sink);
  log.emit(TraceEvent("seen"));
  log.detach_all();
  log.emit(TraceEvent("unseen"));
  ASSERT_EQ(sink->events.size(), 1u);
  EXPECT_EQ(sink->events[0].name, "seen");
}

TEST(Jsonl, WriteThenParseRoundTripsAllFieldTypes) {
  TraceEvent ev("obs.test", Severity::Debug);
  ev.t = 1.25;
  ev.seq = 7;
  ev.with("s", std::string("hello \"world\"\n\t\\"))
      .with("d", 2.5)
      .with("i", std::int64_t{-3})
      .with("u", std::uint64_t{18446744073709551615ull})
      .with("b", true)
      // Doubles that six significant digits would not carry back.
      .with("tenth", 0.1)
      .with("nine_digits", 0.123456789)
      .with("big", 1234567.8);

  std::ostringstream os;
  write_jsonl(os, ev);
  const std::string line = os.str();
  EXPECT_EQ(line.back(), '\n');

  const auto parsed = parse_jsonl_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->t, 1.25);
  EXPECT_EQ(parsed->seq, 7u);
  EXPECT_EQ(parsed->severity, Severity::Debug);
  EXPECT_EQ(parsed->name, "obs.test");
  EXPECT_EQ(std::get<std::string>(*parsed->field("s")), "hello \"world\"\n\t\\");
  EXPECT_DOUBLE_EQ(std::get<double>(*parsed->field("d")), 2.5);
  EXPECT_EQ(std::get<std::int64_t>(*parsed->field("i")), -3);
  EXPECT_EQ(std::get<std::uint64_t>(*parsed->field("u")), 18446744073709551615ull);
  EXPECT_EQ(std::get<bool>(*parsed->field("b")), true);
  EXPECT_EQ(std::get<double>(*parsed->field("tenth")), 0.1);
  EXPECT_EQ(std::get<double>(*parsed->field("nine_digits")), 0.123456789);
  EXPECT_EQ(std::get<double>(*parsed->field("big")), 1234567.8);

  ev.t = 1234567.8;
  std::ostringstream big_t;
  write_jsonl(big_t, ev);
  const auto reparsed = parse_jsonl_line(big_t.str());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->t, 1234567.8);
}

TEST(Jsonl, ParseRejectsMalformedLines) {
  EXPECT_FALSE(parse_jsonl_line("").has_value());
  EXPECT_FALSE(parse_jsonl_line("not json").has_value());
  EXPECT_FALSE(parse_jsonl_line("{\"event\":\"x\"").has_value());      // unterminated
  EXPECT_FALSE(parse_jsonl_line("{\"event\":\"x\"} trailing").has_value());
  EXPECT_FALSE(parse_jsonl_line("[1,2,3]").has_value());               // not an object
  EXPECT_FALSE(parse_jsonl_line("{\"a\":}").has_value());
}

TEST(Jsonl, ParseToleratesMissingReservedKeys) {
  const auto parsed = parse_jsonl_line("{\"k\":1}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, "");
  EXPECT_EQ(parsed->seq, 0u);
  ASSERT_NE(parsed->field("k"), nullptr);
}

TEST(Jsonl, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Sinks, JsonlStreamSinkWritesParseableLines) {
  std::ostringstream os;
  EventLog log;
  log.attach(std::make_shared<JsonlStreamSink>(os));
  log.emit(TraceEvent("one").with("v", std::uint64_t{1}));
  log.emit(TraceEvent("two").with("v", std::uint64_t{2}));

  std::istringstream in(os.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    const auto parsed = parse_jsonl_line(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace jrsnd::obs
