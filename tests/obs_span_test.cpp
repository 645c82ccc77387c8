// Span tracing and the flight recorder: context propagation, deterministic
// ids, JSONL emission, the thread-local loss-reason channel, ring wrap, and
// the FaultyPhy crash-event dump path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "core/phy_model.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_phy.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sinks.hpp"
#include "obs/span.hpp"

namespace jrsnd::obs {
namespace {

class CaptureSink final : public EventSink {
 public:
  void write(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

/// Attaches a capture sink to the process log with tracing on; restores
/// everything on destruction so other tests see the default-off state.
class TracingGuard {
 public:
  TracingGuard() : sink_(std::make_shared<CaptureSink>()) {
    event_log().attach(sink_);
    set_tracing_enabled(true);
  }
  ~TracingGuard() {
    set_tracing_enabled(false);
    event_log().detach_all();
  }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return sink_->events; }

 private:
  std::shared_ptr<CaptureSink> sink_;
};

std::uint64_t u64_field(const TraceEvent& ev, const char* key) {
  const FieldValue* f = ev.field(key);
  EXPECT_NE(f, nullptr) << key;
  const auto* u = f != nullptr ? std::get_if<std::uint64_t>(f) : nullptr;
  EXPECT_NE(u, nullptr) << key;
  return u != nullptr ? *u : 0;
}

std::string str_field(const TraceEvent& ev, const char* key) {
  const FieldValue* f = ev.field(key);
  const auto* s = f != nullptr ? std::get_if<std::string>(f) : nullptr;
  return s != nullptr ? *s : std::string();
}

TEST(Span, ContextPropagatesThroughNestingAndRestores) {
  ASSERT_EQ(current_span().trace_id, 0u);
  {
    Span root("dndp.attempt", 42);
    EXPECT_EQ(current_span().trace_id, 42u);
    EXPECT_EQ(current_span().span_id, 1u);
    EXPECT_EQ(current_span().parent_id, 0u);
    {
      Span child("phy.transmit");
      EXPECT_EQ(child.context().trace_id, 42u);
      EXPECT_EQ(child.context().span_id, 2u);
      EXPECT_EQ(child.context().parent_id, 1u);
      Span grandchild("ecc.decode");
      EXPECT_EQ(grandchild.context().span_id, 3u);
      EXPECT_EQ(grandchild.context().parent_id, 2u);
    }
    // Back at the root: the next child gets a fresh id but the root parent.
    Span sibling("dsss.scan");
    EXPECT_EQ(sibling.context().span_id, 4u);
    EXPECT_EQ(sibling.context().parent_id, 1u);
  }
  EXPECT_EQ(current_span().trace_id, 0u);
  EXPECT_EQ(current_span().span_id, 0u);
}

TEST(Span, IdsAreDeterministicPerTrace) {
  const auto run_trace = [] {
    std::vector<std::uint32_t> ids;
    Span root("dndp.attempt", 99);
    ids.push_back(root.context().span_id);
    {
      Span sub("dndp.subsession");
      ids.push_back(sub.context().span_id);
      Span tx("phy.transmit");
      ids.push_back(tx.context().span_id);
    }
    Span sub2("dndp.subsession");
    ids.push_back(sub2.context().span_id);
    return ids;
  };
  // Two identical attempts (even back to back on one thread) number their
  // spans identically — the determinism the serial/parallel byte-identity
  // of traces rides on.
  EXPECT_EQ(run_trace(), run_trace());
}

TEST(Span, DeriveTraceIdIsDeterministicOrderSensitiveAndNonZero) {
  const std::uint64_t id = derive_trace_id(1, 2, 3, 0);
  EXPECT_EQ(id, derive_trace_id(1, 2, 3, 0));
  EXPECT_NE(id, derive_trace_id(1, 3, 2, 0));  // (a, b) != (b, a)
  EXPECT_NE(id, derive_trace_id(1, 2, 3, 1));  // attempt index matters
  EXPECT_NE(id, derive_trace_id(2, 2, 3, 0));  // seed salt matters
  EXPECT_NE(derive_trace_id(0, 0, 0, 0), 0u);  // 0 is the no-trace sentinel
}

TEST(Span, LossReasonChannelSetsPeeksAndTakes) {
  (void)take_loss_reason();  // clear anything a prior test left behind
  EXPECT_EQ(peek_loss_reason(), LossStage::None);
  set_loss_reason(LossStage::Jammed);
  EXPECT_EQ(peek_loss_reason(), LossStage::Jammed);
  EXPECT_EQ(take_loss_reason(), LossStage::Jammed);
  EXPECT_EQ(take_loss_reason(), LossStage::None);  // take clears
}

TEST(Span, EmitsBeginAndEndEventsWithContextFields) {
  TracingGuard tracing;
  const ScopedSimTime at(7.0);
  {
    Span root("dndp.attempt", 1234);
    root.set_ok(false);
    root.set_loss(LossStage::Timeout);
    root.set_dur(0.25);
    root.with_u64("code", 5);
  }
  ASSERT_EQ(tracing.events().size(), 2u);
  const TraceEvent& begin = tracing.events()[0];
  EXPECT_EQ(begin.name, "span.begin");
  EXPECT_DOUBLE_EQ(begin.t, 7.0);
  EXPECT_EQ(u64_field(begin, "trace"), 1234u);
  EXPECT_EQ(u64_field(begin, "span"), 1u);
  EXPECT_EQ(u64_field(begin, "parent"), 0u);
  EXPECT_EQ(str_field(begin, "name"), "dndp.attempt");

  const TraceEvent& end = tracing.events()[1];
  EXPECT_EQ(end.name, "span.end");
  EXPECT_EQ(end.severity, Severity::Warn);  // failed spans warn
  EXPECT_EQ(u64_field(end, "trace"), 1234u);
  EXPECT_EQ(str_field(end, "loss"), "timeout");
  ASSERT_NE(end.field("dur"), nullptr);
  EXPECT_DOUBLE_EQ(std::get<double>(*end.field("dur")), 0.25);
  EXPECT_EQ(u64_field(end, "code"), 5u);
  // Wall time is opt-in (default off): its nondeterminism would break the
  // serial-vs-parallel trace identity.
  EXPECT_EQ(end.field("wall_us"), nullptr);
}

TEST(Span, SuccessfulSpanOmitsLossField) {
  TracingGuard tracing;
  { Span span("crypto.seal"); }
  ASSERT_EQ(tracing.events().size(), 2u);
  EXPECT_EQ(tracing.events()[1].field("loss"), nullptr);
  ASSERT_NE(tracing.events()[1].field("ok"), nullptr);
  EXPECT_TRUE(std::get<bool>(*tracing.events()[1].field("ok")));
}

TEST(Span, WallClockFieldAppearsWhenOptedIn) {
  TracingGuard tracing;
  set_span_wall_clock(true);
  { Span span("phy.transmit"); }
  set_span_wall_clock(false);
  ASSERT_EQ(tracing.events().size(), 2u);
  ASSERT_NE(tracing.events()[1].field("wall_us"), nullptr);
  EXPECT_GE(std::get<double>(*tracing.events()[1].field("wall_us")), 0.0);
}

/// Every line of a flight dump, parsed.
std::vector<TraceEvent> parse_dump(const std::string& text) {
  std::istringstream in(text);
  std::vector<TraceEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    const auto ev = parse_jsonl_line(line);
    EXPECT_TRUE(ev.has_value()) << line;
    if (ev.has_value()) events.push_back(*ev);
  }
  return events;
}

/// The rings as dump_flight_fd writes them, read back from a temp file.
std::vector<TraceEvent> dump_flight_events() {
  const std::string path = ::testing::TempDir() + "jrsnd_flight_dump.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  dump_flight_fd(fileno(f));
  std::fclose(f);
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  return parse_dump(text.str());
}

double number_field(const TraceEvent& ev, const char* key) {
  const FieldValue* f = ev.field(key);
  if (f == nullptr) return -1.0;
  if (const auto* d = std::get_if<double>(f)) return *d;
  if (const auto* u = std::get_if<std::uint64_t>(f)) return static_cast<double>(*u);
  return -1.0;
}

TEST(FlightRecorder, RingWrapsAtCapacityAndSurvivesThreadExit) {
  set_flight_capacity(8);
  flight_reset();
  const std::uint64_t dropped_before = flight_records_dropped();
  // A fresh thread acquires a fresh ring at the 8-record capacity; its
  // records must remain dumpable after it exits.
  std::thread([] {
    for (std::uint64_t i = 0; i < 20; ++i) flight_note("wrap.note", 100 + i);
  }).join();
  EXPECT_GE(flight_records_dropped() - dropped_before, 12u);

  std::size_t wrap_notes = 0;
  std::uint64_t last_arg = 0;
  for (const TraceEvent& ev : dump_flight_events()) {
    if (ev.name == "flight.note" && str_field(ev, "name") == "wrap.note") {
      ++wrap_notes;
      last_arg = u64_field(ev, "arg");
    }
  }
  // Only the newest `capacity` records survive the wrap, oldest first.
  EXPECT_EQ(wrap_notes, 8u);
  EXPECT_EQ(last_arg, 119u);  // the final note pushed is the last dumped
  set_flight_capacity(0);     // back to the env/default capacity
}

TEST(FlightRecorder, DisabledRecorderPushesNothing) {
  flight_reset();
  set_flight_enabled(false);
  const std::uint64_t before = flight_records_pushed();
  flight_note("dark.note", 1);
  { Span span("dark.span"); }
  EXPECT_EQ(flight_records_pushed(), before);
  set_flight_enabled(true);
}

TEST(FlightRecorder, SpanContextRidesOnNotes) {
  flight_reset();
  {
    Span root("dndp.attempt", 77);
    flight_note("hs.retx", 3);
  }
  bool found = false;
  for (const TraceEvent& ev : dump_flight_events()) {
    if (ev.name == "flight.note" && str_field(ev, "name") == "hs.retx") {
      found = true;
      EXPECT_EQ(u64_field(ev, "trace"), 77u);
      EXPECT_EQ(u64_field(ev, "span"), 1u);
      EXPECT_EQ(u64_field(ev, "arg"), 3u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(FlightRecorder, DumpFdIsWritableWithoutLocks) {
  flight_reset();
  flight_note("fd.note", 9);
  const std::string path = ::testing::TempDir() + "jrsnd_flight_fd.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  dump_flight_fd(fileno(f));
  std::fclose(f);
  std::ifstream in(path);
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    const auto ev = parse_jsonl_line(line);
    ASSERT_TRUE(ev.has_value()) << line;
    found = found || str_field(*ev, "name") == "fd.note";
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST(FlightRecorder, NoteRecordedAfterSpansDumpsLast) {
  // Span records and notes are stamped against one wall origin, so a note
  // taken 10 ms after the first span sorts after every span record.
  flight_reset();
  { Span first("order.first"); }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  { Span second("order.second"); }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  flight_note("order.note", 1);

  std::vector<std::string> order;
  std::vector<double> wall;
  for (const TraceEvent& ev : dump_flight_events()) {
    const std::string name = str_field(ev, "name");
    if (name.rfind("order.", 0) != 0) continue;
    order.push_back(ev.name + " " + name);
    wall.push_back(number_field(ev, "wall_s"));
  }
  const std::vector<std::string> expected = {
      "flight.begin order.first",  "flight.end order.first", "flight.begin order.second",
      "flight.end order.second", "flight.note order.note"};
  EXPECT_EQ(order, expected);
  ASSERT_EQ(wall.size(), 5u);
  EXPECT_GE(wall[4] - wall[0], 0.009);
}

TEST(FlightRecorder, DumpInterleavesRingsByWallClock) {
  flight_reset();
  const auto record_on_main = [](std::uint64_t trace, double t) {
    const ScopedSimTime at(t);
    Span root("parity.root", trace);
    {
      Span child("parity.child");
      child.set_ok(false);
      child.set_loss(LossStage::Jammed);
    }
    flight_note("parity.note", trace);
    flight_note("parity.zero_arg", 0);
  };
  // Main, another thread, main again: the dump must interleave the two rings
  // by wall clock and number seq across both. The thread's sim time needs
  // all 8 significant digits to read back exactly.
  record_on_main(41, 2.0);
  std::thread([] {
    const ScopedSimTime at(1234567.8);
    Span other("parity.thread", 42);
    flight_note("parity.thread.note", 9);
  }).join();
  record_on_main(43, 4.0);

  struct Expected {
    const char* event;
    const char* name;
    double t;
    std::uint64_t arg;  // 0 = no `arg` field
  };
  const Expected expected[] = {
      {"flight.begin", "parity.root", 2.0, 0},      {"flight.begin", "parity.child", 2.0, 0},
      {"flight.end", "parity.child", 2.0, 0},       {"flight.note", "parity.note", 2.0, 41},
      {"flight.note", "parity.zero_arg", 2.0, 0},   {"flight.end", "parity.root", 2.0, 0},
      {"flight.begin", "parity.thread", 1234567.8, 0},
      {"flight.note", "parity.thread.note", 1234567.8, 9},
      {"flight.end", "parity.thread", 1234567.8, 0},
      {"flight.begin", "parity.root", 4.0, 0},      {"flight.begin", "parity.child", 4.0, 0},
      {"flight.end", "parity.child", 4.0, 0},       {"flight.note", "parity.note", 4.0, 43},
      {"flight.note", "parity.zero_arg", 4.0, 0},   {"flight.end", "parity.root", 4.0, 0},
  };
  const std::vector<TraceEvent> dumped = dump_flight_events();
  ASSERT_EQ(dumped.size(), std::size(expected));
  double last_wall = 0.0;
  for (std::size_t i = 0; i < dumped.size(); ++i) {
    const TraceEvent& ev = dumped[i];
    const Expected& want = expected[i];
    SCOPED_TRACE("record " + std::to_string(i) + " " + str_field(ev, "name"));
    EXPECT_EQ(ev.name, want.event);
    EXPECT_EQ(str_field(ev, "name"), want.name);
    EXPECT_EQ(ev.seq, i + 1) << "seq runs on across rings";
    EXPECT_EQ(ev.t, want.t) << "t reads back exactly";
    const double wall = number_field(ev, "wall_s");
    EXPECT_GE(wall, last_wall) << "rings merge in wall-clock order";
    last_wall = wall;
    // `ok` only on end records; the failed child is the one warn/jammed.
    const bool is_end = ev.name == "flight.end";
    ASSERT_EQ(ev.field("ok") != nullptr, is_end);
    const bool failed = str_field(ev, "name") == "parity.child" && is_end;
    if (is_end) {
      EXPECT_EQ(std::get<bool>(*ev.field("ok")), !failed);
    }
    EXPECT_EQ(ev.severity, failed ? Severity::Warn : Severity::Info);
    EXPECT_EQ(str_field(ev, "loss"), failed ? "jammed" : "");
    // `arg` only on notes whose argument is nonzero.
    if (want.arg != 0) {
      EXPECT_EQ(u64_field(ev, "arg"), want.arg);
    } else {
      EXPECT_EQ(ev.field("arg"), nullptr);
    }
  }
}

TEST(FlightRecorder, DumpNowBesideLiveWritersReadsWholeRecords) {
  // An on-demand dump holds every ring it reads, so records pushed by other
  // threads meanwhile are never torn (the thread sanitizer leg checks the
  // locking itself).
  flight_reset();
  const std::string path = ::testing::TempDir() + "jrsnd_flight_live.jsonl";
  set_flight_dump_path(path);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) flight_note("live.note", 7);
    });
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dump_flight_now());
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    for (const TraceEvent& ev : parse_dump(text.str())) {
      if (str_field(ev, "name") == "live.note") {
        EXPECT_EQ(u64_field(ev, "arg"), 7u);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  set_flight_dump_path("");
  std::remove(path.c_str());
}

/// Inner PHY that always delivers — isolates FaultyPhy's crash behavior.
class LoopbackPhy final : public core::PhyModel {
 public:
  void begin_subsession(NodeId, NodeId, CodeId) override {}
  std::optional<BitVector> transmit(NodeId, NodeId, core::TxCode, core::TxClass,
                                    const BitVector& payload) override {
    return payload;
  }
};

TEST(FlightRecorder, FaultyPhyCrashEventDumpsToConfiguredPath) {
  const std::string path = ::testing::TempDir() + "jrsnd_flight_crash.jsonl";
  std::remove(path.c_str());
  flight_reset();
  set_flight_dump_path(path);
  flight_note("pre.crash", 7);

  fault::FaultPlan plan;
  plan.crashes.push_back(fault::CrashEvent{node_id(0), TimePoint{0.0}, Duration{10.0}});
  LoopbackPhy inner;
  fault::FaultyPhy phy(inner, plan);
  (void)take_loss_reason();
  BitVector payload;
  payload.push_back(true);
  const auto result =
      phy.transmit(node_id(0), node_id(1), core::TxCode{}, core::TxClass::Hello, payload);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(take_loss_reason(), LossStage::Crash);

  // The first blocked message snapshots the rings to the configured path;
  // the pre-crash note must be in the postmortem.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash dump was not written to " << path;
  std::string line;
  bool found_note = false;
  std::size_t records = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto ev = parse_jsonl_line(line);
    ASSERT_TRUE(ev.has_value()) << line;
    ++records;
    found_note = found_note || (ev->name == "flight.note" &&
                                str_field(*ev, "name") == "pre.crash");
  }
  EXPECT_GT(records, 0u);
  EXPECT_TRUE(found_note);
  set_flight_dump_path("");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jrsnd::obs
