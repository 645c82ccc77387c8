// MetricsExporter: Prometheus text rendering, atomic file publication, and
// the JSONL heartbeat stream.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/exporter.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"

namespace jrsnd::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Prometheus, RendersCountersAndGauges) {
  MetricsRegistry reg;
  reg.counter("dndp.tx").inc(7);
  reg.gauge("sim.runs.completed").set(3.0);
  reg.gauge("sim.rate").set(0.25);

  std::ostringstream os;
  write_prometheus(os, reg.snapshot(), "jrsnd");

  // Dots sanitize to underscores and every series carries a TYPE line:
  // counters first, then gauges, each section sorted by name.
  EXPECT_EQ(os.str(),
            "# TYPE jrsnd_dndp_tx counter\njrsnd_dndp_tx 7\n"
            "# TYPE jrsnd_sim_rate gauge\njrsnd_sim_rate 0.25\n"
            "# TYPE jrsnd_sim_runs_completed gauge\njrsnd_sim_runs_completed 3\n");
}

TEST(Prometheus, EmptyPrefixOmitsLeadingUnderscore) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  std::ostringstream os;
  write_prometheus(os, reg.snapshot(), "");
  EXPECT_EQ(os.str().rfind("# TYPE c counter", 0), 0u) << os.str();
}

TEST(Exporter, ExportNowPublishesPrometheusFileAndHeartbeats) {
  // The exporter publishes the *process* registry (that is the point: live
  // visibility into the real sweep), so use names unique to this test.
  registry().counter("exp.test.attempts").inc(5);
  registry().gauge("exp.test.progress").set(0.5);

  const std::string prom = ::testing::TempDir() + "jrsnd_exporter_test.prom";
  const std::string beats = ::testing::TempDir() + "jrsnd_exporter_test.jsonl";
  std::remove(prom.c_str());
  std::remove(beats.c_str());

  ExporterOptions options;
  options.prometheus_path = prom;
  options.heartbeat_path = beats;
  options.interval_s = 0.0;  // no background thread: deterministic exports only
  options.source = "obs_test";
  {
    MetricsExporter exporter(options);
    EXPECT_TRUE(exporter.export_now());
    EXPECT_EQ(exporter.exports(), 1u);
    registry().counter("exp.test.attempts").inc(3);
    EXPECT_TRUE(exporter.export_now());
    EXPECT_EQ(exporter.exports(), 2u);
  }  // destructor publishes once more

  const std::string text = slurp(prom);
  // The rename target holds the latest snapshot and no tmp file lingers.
  EXPECT_NE(text.find("jrsnd_exp_test_attempts 8\n"), std::string::npos) << text;
  EXPECT_FALSE(std::ifstream(prom + ".tmp").good());

  std::ifstream in(beats);
  std::string line;
  std::vector<TraceEvent> events;
  while (std::getline(in, line)) {
    const auto ev = parse_jsonl_line(line);
    ASSERT_TRUE(ev.has_value()) << line;
    events.push_back(*ev);
  }
  ASSERT_EQ(events.size(), 3u);  // two explicit exports + the dtor flush
  for (const TraceEvent& ev : events) {
    EXPECT_EQ(ev.name, "export.heartbeat");
    ASSERT_NE(ev.field("uptime_s"), nullptr);
    EXPECT_GE(std::get<double>(*ev.field("uptime_s")), 0.0);
    ASSERT_NE(ev.field("source"), nullptr);
    EXPECT_EQ(std::get<std::string>(*ev.field("source")), "obs_test");
  }
  // Heartbeats carry the counters flat; the stream shows progress over time.
  ASSERT_NE(events[0].field("exp.test.attempts"), nullptr);
  EXPECT_EQ(std::get<std::uint64_t>(*events[0].field("exp.test.attempts")), 5u);
  EXPECT_EQ(std::get<std::uint64_t>(*events[1].field("exp.test.attempts")), 8u);
  ASSERT_NE(events[0].field("exp.test.progress"), nullptr);
  EXPECT_DOUBLE_EQ(std::get<double>(*events[0].field("exp.test.progress")), 0.5);
  // seq increases monotonically across heartbeats.
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);

  std::remove(prom.c_str());
  std::remove(beats.c_str());
}

TEST(Exporter, HeartbeatCountsItself) {
  MetricsRegistry scratch;
  const ScopedMetricsRegistry override_guard(&scratch);
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);

  const std::string beats = ::testing::TempDir() + "jrsnd_exporter_count.jsonl";
  std::remove(beats.c_str());
  ExporterOptions options;
  options.heartbeat_path = beats;
  options.interval_s = 0.0;
  {
    MetricsExporter exporter(options);
    EXPECT_TRUE(exporter.export_now());
  }
  set_metrics_enabled(was_enabled);
  EXPECT_EQ(scratch.counter("export.heartbeats").value(), 2u);
  std::remove(beats.c_str());
}

TEST(Exporter, BackgroundThreadExportsPeriodically) {
  MetricsRegistry scratch;
  const ScopedMetricsRegistry override_guard(&scratch);
  ExporterOptions options;  // no destinations: pure cadence test
  options.interval_s = 0.005;
  MetricsExporter exporter(options);
  exporter.start();
  // The registry override is thread-local, so the background thread writes
  // the global registry; we only assert the export loop actually runs.
  const std::uint64_t before = exporter.exports();
  while (exporter.exports() < before + 2) std::this_thread::yield();
  exporter.stop();
  EXPECT_GE(exporter.exports(), before + 2);
}

TEST(Exporter, UnwritablePathReportsFailure) {
  ExporterOptions options;
  options.prometheus_path = "/nonexistent-dir-jrsnd/metrics.prom";
  MetricsExporter exporter(options);
  EXPECT_FALSE(exporter.export_now());
}

}  // namespace
}  // namespace jrsnd::obs
