#include "obs/exporter.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "obs/event_log.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/span.hpp"

namespace jrsnd::obs {

namespace {

std::string prom_name(std::string_view prefix, std::string_view name) {
  std::string out;
  out.reserve(prefix.size() + name.size() + 1);
  out.append(prefix);
  if (!prefix.empty()) out.push_back('_');
  for (const char c : name) {
    const auto uc = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(uc) != 0 ? c : '_');
  }
  return out;
}

void write_prom_value(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
  }
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot,
                      std::string_view prefix) {
  for (const CounterSample& c : snapshot.counters) {
    const std::string name = prom_name(prefix, c.name);
    os << "# TYPE " << name << " counter\n" << name << " " << c.value << "\n";
  }
  for (const GaugeSample& g : snapshot.gauges) {
    const std::string name = prom_name(prefix, g.name);
    os << "# TYPE " << name << " gauge\n" << name << " ";
    write_prom_value(os, g.value);
    os << "\n";
  }
}

MetricsExporter::MetricsExporter(ExporterOptions options) : options_(std::move(options)) {}

MetricsExporter::~MetricsExporter() {
  stop();
  (void)export_now();  // final state always lands on disk
}

void MetricsExporter::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (running_ || options_.interval_s <= 0.0) return;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void MetricsExporter::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricsExporter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (running_) {
    const auto period = std::chrono::duration<double>(options_.interval_s);
    cv_.wait_for(lock, period, [this] { return !running_; });
    if (!running_) break;
    lock.unlock();
    (void)export_now();
    lock.lock();
  }
}

bool MetricsExporter::export_now() {
  const MetricsSnapshot snap = registry().snapshot();
  bool ok = true;
  if (!options_.prometheus_path.empty()) ok = write_prometheus_file(snap) && ok;
  if (!options_.heartbeat_path.empty()) ok = append_heartbeat(snap) && ok;
  exports_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

std::uint64_t MetricsExporter::exports() const noexcept {
  return exports_.load(std::memory_order_relaxed);
}

bool MetricsExporter::write_prometheus_file(const MetricsSnapshot& snapshot) {
  // Write-then-rename so readers never observe a partially written file.
  const std::string tmp = options_.prometheus_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    write_prometheus(out, snapshot, options_.prefix);
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), options_.prometheus_path.c_str()) == 0;
}

bool MetricsExporter::append_heartbeat(const MetricsSnapshot& snapshot) {
  std::ofstream out(options_.heartbeat_path, std::ios::app);
  if (!out) return false;
  TraceEvent ev("export.heartbeat");
  ev.t = event_log().sim_time();
  ev.seq = exports_.load(std::memory_order_relaxed) + 1;
  ev.with("uptime_s", wall_seconds());
  if (!options_.source.empty()) ev.with("source", options_.source);
  for (const CounterSample& c : snapshot.counters) ev.with(c.name, c.value);
  for (const GaugeSample& g : snapshot.gauges) {
    ev.with(g.name, std::isnan(g.value) ? 0.0 : g.value);
  }
  write_jsonl(out, ev);
  JRSND_COUNT("export.heartbeats");
  return static_cast<bool>(out);
}

}  // namespace jrsnd::obs
