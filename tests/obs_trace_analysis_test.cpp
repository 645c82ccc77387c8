// Offline trace analysis: strict JSONL reading, trace normalization, span
// reconstruction / loss attribution, and the ISSUE-6 flagship property —
// a parallel run_all() trace is byte-identical to the serial one after
// seed-ordered normalization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/discovery_sim.hpp"
#include "fault/fault_plan.hpp"
#include "obs/event_log.hpp"
#include "obs/sinks.hpp"
#include "obs/span.hpp"
#include "obs/trace_analysis.hpp"

namespace jrsnd::obs {
namespace {

TraceEvent span_begin(double t, std::uint64_t trace, std::uint64_t span,
                      std::uint64_t parent, const std::string& name) {
  TraceEvent ev("span.begin");
  ev.t = t;
  ev.with("trace", trace);
  ev.with("span", span);
  ev.with("parent", parent);
  ev.with("name", name);
  return ev;
}

TraceEvent span_end(double t, std::uint64_t trace, std::uint64_t span,
                    std::uint64_t parent, const std::string& name, bool ok,
                    const char* loss = nullptr, double dur = -1.0) {
  TraceEvent ev("span.end");
  ev.t = t;
  ev.with("trace", trace);
  ev.with("span", span);
  ev.with("parent", parent);
  ev.with("name", name);
  ev.with("ok", ok);
  if (loss != nullptr) ev.with("loss", std::string(loss));
  if (dur >= 0.0) ev.with("dur", dur);
  return ev;
}

TEST(TraceRead, ParsesEventsAndToleratesBlankLines) {
  std::istringstream in(
      "{\"t\":1,\"seq\":1,\"sev\":\"info\",\"event\":\"a\"}\n"
      "\n"
      "{\"t\":2,\"seq\":2,\"sev\":\"info\",\"event\":\"b\"}\n");
  std::vector<TraceEvent> events;
  TraceReadError error;
  ASSERT_TRUE(read_trace_jsonl(in, events, &error));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
}

TEST(TraceRead, ReportsOneBasedLineOfFirstMalformedLine) {
  std::istringstream in(
      "{\"t\":1,\"seq\":1,\"sev\":\"info\",\"event\":\"a\"}\n"
      "\n"
      "this is not json\n");
  std::vector<TraceEvent> events;
  TraceReadError error;
  EXPECT_FALSE(read_trace_jsonl(in, events, &error));
  EXPECT_EQ(error.line, 3u);
  EXPECT_FALSE(error.message.empty());
}

TEST(TraceNormalize, SortsByTimeStablyAndRenumbersSeq) {
  std::vector<TraceEvent> events;
  events.push_back(span_begin(2.0, 10, 1, 0, "late"));
  events.push_back(span_begin(1.0, 20, 1, 0, "early.first"));
  events.push_back(span_begin(1.0, 21, 1, 0, "early.second"));
  events[0].seq = 900;
  events[1].seq = 901;
  events[2].seq = 902;

  normalize_trace(events);
  EXPECT_EQ(std::get<std::string>(*events[0].field("name")), "early.first");
  EXPECT_EQ(std::get<std::string>(*events[1].field("name")), "early.second");
  EXPECT_EQ(std::get<std::string>(*events[2].field("name")), "late");
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[2].seq, 3u);
}

TEST(TraceAnalysis, PairsSpansAttributesLossAndCountsAttempts) {
  std::vector<TraceEvent> events;
  // Attempt 1 (trace 100): fails, jammed; one child transmit span.
  events.push_back(span_begin(0.0, 100, 1, 0, "dndp.attempt"));
  events.push_back(span_begin(0.0, 100, 2, 1, "phy.transmit"));
  events.push_back(span_end(0.0, 100, 2, 1, "phy.transmit", false, "jammed"));
  events.push_back(span_end(0.0, 100, 1, 0, "dndp.attempt", false, "jammed", 0.5));
  // Attempt 2 (trace 200): succeeds.
  events.push_back(span_begin(1.0, 200, 1, 0, "dndp.attempt"));
  events.push_back(span_end(1.0, 200, 1, 0, "dndp.attempt", true, nullptr, 0.25));
  // A non-span event rides along and only counts toward `events`.
  events.emplace_back("dndp.pair");

  const TraceAnalysis analysis = analyze_trace(events);
  EXPECT_EQ(analysis.events, 7u);
  EXPECT_EQ(analysis.span_events, 6u);
  ASSERT_EQ(analysis.attempts.size(), 2u);
  EXPECT_EQ(analysis.attempts[0].trace_id, 100u);
  EXPECT_FALSE(analysis.attempts[0].ok);
  EXPECT_EQ(analysis.attempts[0].loss, LossStage::Jammed);
  EXPECT_DOUBLE_EQ(analysis.attempts[0].dur, 0.5);
  EXPECT_EQ(analysis.attempts[0].spans, 2u);
  EXPECT_TRUE(analysis.attempts[1].ok);

  EXPECT_EQ(analysis.failed_attempts, 1u);
  EXPECT_EQ(analysis.loss_counts[static_cast<std::size_t>(LossStage::Jammed)], 1u);
  EXPECT_TRUE(analysis.attribution_complete());

  ASSERT_EQ(analysis.stages.count("dndp.attempt"), 1u);
  EXPECT_EQ(analysis.stages.at("dndp.attempt").count, 2u);
  EXPECT_EQ(analysis.stages.at("dndp.attempt").failed, 1u);
  EXPECT_EQ(analysis.stages.at("phy.transmit").failed, 1u);
  EXPECT_EQ(analysis.unmatched_begin, 0u);
  EXPECT_EQ(analysis.unmatched_end, 0u);
}

TEST(TraceAnalysis, FlagsUnattributedFailuresAndUnmatchedRecords) {
  std::vector<TraceEvent> events;
  events.push_back(span_begin(0.0, 300, 1, 0, "dndp.attempt"));
  events.push_back(span_end(0.0, 300, 1, 0, "dndp.attempt", false));  // no loss
  events.push_back(span_begin(1.0, 400, 1, 0, "dndp.attempt"));       // never ends
  events.push_back(span_end(2.0, 500, 7, 3, "orphan", true));         // never began

  const TraceAnalysis analysis = analyze_trace(events);
  EXPECT_EQ(analysis.failed_attempts, 1u);
  EXPECT_EQ(analysis.unattributed_failures, 1u);
  EXPECT_FALSE(analysis.attribution_complete());
  EXPECT_EQ(analysis.unmatched_begin, 1u);
  EXPECT_EQ(analysis.unmatched_end, 1u);
}

TEST(TraceAnalysis, NearestRankUsesRankCeilQn) {
  // A whole q * n is the rank itself, not the one above it.
  EXPECT_EQ(nearest_rank({1.0, 2.0}, 50), 1.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(nearest_rank(hundred, 95), 95.0);
  EXPECT_EQ(nearest_rank(hundred, 99), 99.0);
  EXPECT_EQ(nearest_rank(hundred, 100), 100.0);
  // A fractional q * n rounds up; a zero rank clamps to the first sample.
  EXPECT_EQ(nearest_rank({1.0, 2.0, 3.0}, 50), 2.0);
  EXPECT_EQ(nearest_rank({1.0, 2.0, 3.0}, 0), 1.0);
  EXPECT_TRUE(std::isnan(nearest_rank({}, 50)));
}

TEST(TraceAnalysis, CountsEventsSeveritiesAndDeliveryRatios) {
  std::vector<TraceEvent> events;
  events.emplace_back("dndp.pair");
  events.back().with("discovered", true);
  events.back().t = 3.0;
  events.emplace_back("dndp.pair", Severity::Warn);
  events.back().with("discovered", false);
  events.emplace_back("phy.tx");
  events.back().with("delivered", true);
  events.back().t = 1.5;
  events.push_back(span_begin(0.5, 100, 1, 0, "dndp.attempt"));
  events.push_back(span_end(0.5, 100, 1, 0, "dndp.attempt", true, nullptr, 0.25));

  const TraceAnalysis analysis = analyze_trace(events);
  EXPECT_EQ(analysis.by_event.at("dndp.pair"), 2u);
  EXPECT_EQ(analysis.by_event.at("phy.tx"), 1u);
  EXPECT_EQ(analysis.by_event.at("span.end"), 1u);
  EXPECT_EQ(analysis.by_severity[static_cast<std::size_t>(Severity::Info)], 4u);
  EXPECT_EQ(analysis.by_severity[static_cast<std::size_t>(Severity::Warn)], 1u);
  EXPECT_EQ(analysis.t_min, 0.0);
  EXPECT_EQ(analysis.t_max, 3.0);
  EXPECT_EQ(analysis.dndp_pairs.total, 2u);
  EXPECT_EQ(analysis.dndp_pairs.ok, 1u);
  EXPECT_EQ(analysis.phy_tx.total, 1u);
  EXPECT_EQ(analysis.phy_tx.ok, 1u);

  std::ostringstream os;
  print_analysis(os, analysis, 5);
  const std::string text = os.str();
  EXPECT_NE(text.find("t range: [0.000, 3.000]"), std::string::npos) << text;
  EXPECT_NE(text.find("severity: debug=0 info=4 warn=1 error=0"), std::string::npos) << text;
  EXPECT_NE(text.find("dndp.pair: 1 discovered / 2 total (50.0%)"), std::string::npos) << text;
  EXPECT_NE(text.find("phy.tx: 1 delivered / 1 total (100.0%)"), std::string::npos) << text;
  EXPECT_NE(text.find("stage latency (dur, s):"), std::string::npos) << text;
}

TEST(TraceAnalysis, StageLatencyPrefersWallClock) {
  std::vector<TraceEvent> events;
  for (int i = 1; i <= 100; ++i) {
    events.push_back(span_begin(0.0, 100 + static_cast<std::uint64_t>(i), 1, 0, "dndp.attempt"));
    events.push_back(span_end(0.0, 100 + static_cast<std::uint64_t>(i), 1, 0, "dndp.attempt",
                              true, nullptr, 0.5));
    events.back().with("wall_us", static_cast<double>(i));
  }
  std::ostringstream os;
  print_analysis(os, analyze_trace(events), 0);
  const std::string text = os.str();
  EXPECT_EQ(text.find("stage latency (dur, s):"), std::string::npos) << text;
  // count, then p50 p95 p99 max of wall_us 1..100 at ranks 50, 95, 99, 100.
  EXPECT_NE(text.find("stage latency (wall_us):"), std::string::npos) << text;
  EXPECT_NE(text.find("     100      50.000      95.000      99.000     100.000"),
            std::string::npos)
      << text;
}

TEST(TraceAnalysis, PrintsReportWithLossTable) {
  std::vector<TraceEvent> events;
  events.push_back(span_begin(0.0, 100, 1, 0, "dndp.attempt"));
  events.push_back(span_end(0.0, 100, 1, 0, "dndp.attempt", false, "timeout", 1.0));
  const TraceAnalysis analysis = analyze_trace(events);
  std::ostringstream os;
  print_analysis(os, analysis, 5);
  EXPECT_NE(os.str().find("timeout"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("dndp.attempt"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Satellite 4: end-to-end trace emission under JRSND_THREADS > 1.

core::ExperimentConfig traced_config() {
  core::ExperimentConfig cfg;
  cfg.params = core::Params::defaults();
  cfg.params.n = 150;
  cfg.params.m = 20;
  cfg.params.l = 15;
  cfg.params.q = 20;  // jammers on, so some attempts fail and need attribution
  cfg.params.field_width = 1500.0;
  cfg.params.field_height = 1500.0;
  cfg.params.runs = 6;
  cfg.base_seed = 42;
  cfg.jammer = core::JammerKind::Random;
  return cfg;
}

std::string capture_trace(const core::DiscoverySimulator& sim, const char* threads) {
  EXPECT_EQ(setenv("JRSND_THREADS", threads, 1), 0) << threads;
  std::ostringstream os;
  const auto sink = std::make_shared<JsonlStreamSink>(os);
  event_log().attach(sink);
  set_tracing_enabled(true);
  (void)sim.run_all();
  set_tracing_enabled(false);
  event_log().detach_all();
  EXPECT_EQ(unsetenv("JRSND_THREADS"), 0);
  return os.str();
}

std::vector<TraceEvent> parse_all(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::vector<TraceEvent> events;
  TraceReadError error;
  EXPECT_TRUE(read_trace_jsonl(in, events, &error))
      << "line " << error.line << ": " << error.message;
  return events;
}

std::string reserialize(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  for (const TraceEvent& ev : events) write_jsonl(os, ev);
  return os.str();
}

TEST(TraceParallel, SpanRecordsCompleteConsistentAndByteIdenticalToSerial) {
  const core::DiscoverySimulator sim(traced_config());

  const std::string serial_raw = capture_trace(sim, "1");
  const std::string parallel_raw = capture_trace(sim, "4");
  ASSERT_FALSE(serial_raw.empty());
  ASSERT_FALSE(parallel_raw.empty());

  std::vector<TraceEvent> serial = parse_all(serial_raw);
  std::vector<TraceEvent> parallel = parse_all(parallel_raw);
  ASSERT_EQ(serial.size(), parallel.size());

  // After the seed-ordered sort + seq renumber, the two traces must agree
  // byte for byte — worker interleaving is the only difference.
  normalize_trace(serial);
  normalize_trace(parallel);
  EXPECT_EQ(reserialize(serial), reserialize(parallel));

  // And both reconstruct into complete, fully attributed span trees.
  const TraceAnalysis analysis = analyze_trace(serial);
  EXPECT_GT(analysis.attempts.size(), 0u);
  EXPECT_EQ(analysis.unmatched_begin, 0u);
  EXPECT_EQ(analysis.unmatched_end, 0u);
  EXPECT_TRUE(analysis.attribution_complete());
}

TEST(TraceParallel, ChaosTraceAttributesEveryFailedAttempt) {
  core::ExperimentConfig cfg = traced_config();
  fault::FaultPlan plan;
  plan.seed = 17;
  plan.drop = 0.2;
  plan.corrupt = 0.1;
  plan.auto_tick = 0.001;
  cfg.faults = plan;
  cfg.params.retry.max_retx = 1;
  const core::DiscoverySimulator sim(cfg);

  const std::string raw = capture_trace(sim, "4");
  std::vector<TraceEvent> events = parse_all(raw);
  normalize_trace(events);
  const TraceAnalysis analysis = analyze_trace(events);

  // Chaos guarantees failures; every one of them must map to exactly one
  // loss stage (the acceptance bar for `jrsnd analyze` on chaos traces).
  EXPECT_GT(analysis.failed_attempts, 0u);
  EXPECT_TRUE(analysis.attribution_complete());
  std::uint64_t attributed = 0;
  for (std::size_t i = 1; i < analysis.loss_counts.size(); ++i) {
    attributed += analysis.loss_counts[i];
  }
  EXPECT_EQ(attributed, analysis.failed_attempts);
}

}  // namespace
}  // namespace jrsnd::obs
