#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <stdexcept>

#include "obs/sinks.hpp"  // json_escape

namespace jrsnd::obs {

namespace detail {

std::atomic<bool> g_metrics_enabled{false};
std::atomic<std::uint64_t> g_registry_generation{1};

}  // namespace detail

namespace {

thread_local MetricsRegistry* t_registry_override = nullptr;

}  // namespace

void set_metrics_enabled(bool enabled) noexcept {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void Gauge::add(double delta) noexcept {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

void Gauge::update_max(double v) noexcept {
  double cur = value_.load(std::memory_order_relaxed);
  while (v > cur) {
    if (value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) return;
  }
}

bool MetricsSnapshot::empty() const noexcept {
  return counters.empty() && gauges.empty();
}

namespace {

void print_number(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "-";
  } else {
    os << std::fixed << std::setprecision(6) << v;
  }
}

}  // namespace

void MetricsSnapshot::print_table(std::ostream& os) const {
  std::size_t width = 24;
  for (const auto& c : counters) width = std::max(width, c.name.size());
  for (const auto& g : gauges) width = std::max(width, g.name.size());

  if (!counters.empty()) {
    os << "counters:\n";
    for (const CounterSample& c : counters) {
      os << "  " << std::left << std::setw(static_cast<int>(width)) << c.name << "  "
         << c.value << "\n";
    }
  }
  if (!gauges.empty()) {
    os << "gauges:\n";
    for (const GaugeSample& g : gauges) {
      os << "  " << std::left << std::setw(static_cast<int>(width)) << g.name << "  ";
      print_number(os, g.value);
      os << "\n";
    }
  }
  if (empty()) os << "(no metrics recorded)\n";
}

namespace {

void write_json_number(std::ostream& os, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    os << "null";  // JSON has no NaN
  } else {
    os << v;
  }
}

}  // namespace

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(counters[i].name) << "\":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(gauges[i].name) << "\":";
    write_json_number(os, gauges[i].value);
  }
  os << "}}";
}

namespace {

/// A name registered under two metric kinds would silently split one logical
/// metric across snapshot sections; refuse with both kinds named.
[[noreturn]] void throw_kind_collision(std::string_view name, const char* requested,
                                       const char* existing) {
  throw std::logic_error("metric name '" + std::string(name) + "' requested as " + requested +
                         " but already registered as a " + existing);
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    if (gauges_.find(name) != gauges_.end()) throw_kind_collision(name, "counter", "gauge");
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    if (counters_.find(name) != counters_.end()) throw_kind_collision(name, "gauge", "counter");
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.push_back({name, g->value()});
  return snap;  // maps iterate sorted, so samples are name-sorted already
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
}

void MetricsRegistry::absorb(const MetricsSnapshot& snapshot) {
  for (const CounterSample& c : snapshot.counters) counter(c.name).inc(c.value);
  for (const GaugeSample& g : snapshot.gauges) gauge(g.name).update_max(g.value);
}

MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

MetricsRegistry& active_registry() {
  return t_registry_override != nullptr ? *t_registry_override : registry();
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry* scratch)
    : previous_(t_registry_override), installed_(scratch != nullptr) {
  if (installed_) {
    t_registry_override = scratch;
    detail::g_registry_generation.fetch_add(1, std::memory_order_relaxed);
  }
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  if (installed_) {
    t_registry_override = previous_;
    detail::g_registry_generation.fetch_add(1, std::memory_order_relaxed);
  }
}

void preregister_core_metrics() {
  MetricsRegistry& r = registry();
  for (const char* name : {
           "dndp.runs", "dndp.discovered", "dndp.failed", "dndp.no_shared_code",
           "dndp.hellos_delivered", "dndp.subsessions.started",
           "dndp.subsessions.completed", "dndp.subsessions.failed", "dndp.mac_failures",
           "mndp.initiations", "mndp.requests_sent", "mndp.responses_sent",
           "mndp.sig_verifications", "mndp.sigs_created", "mndp.requests_dropped",
           "mndp.discoveries", "mndp.false_positive_responses",
           "dndp.retx.attempts", "dndp.retx.recovered",
           "dndp.timeout.expired", "dndp.timeout.exhausted",
           "mndp.retx.attempts", "mndp.retx.recovered",
           "mndp.timeout.expired", "mndp.timeout.exhausted",
           "fault.injected.drop", "fault.injected.duplicate",
           "fault.injected.reorder", "fault.injected.corrupt",
           "fault.injected.truncate", "fault.injected.crash_blocked",
           "dsss.sync.scans", "dsss.sync.hits", "dsss.sync.misses",
           "dsss.sync.windows_below_tau",
           "ecc.rs.encode.calls", "ecc.rs.decode.calls", "ecc.rs.decode.ok",
           "ecc.rs.decode.fail", "ecc.rs.decode.erasures", "ecc.rs.decode.errors_corrected",
           "phy.tx.total", "phy.tx.delivered", "phy.tx.jammed", "phy.tx.out_of_range",
       }) {
    (void)r.counter(name);
  }
}

}  // namespace jrsnd::obs
