#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "obs/sinks.hpp"  // json_escape

namespace jrsnd::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

// Generation 0 is reserved as the macros' "never resolved" sentinel.
std::atomic<std::uint64_t> g_registry_generation{1};
thread_local MetricsRegistry* t_registry_override = nullptr;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// CAS update keeping the extremum; `first` seeds an empty slot (NaN).
template <typename Cmp>
void update_extremum(std::atomic<double>& slot, double v, Cmp better) noexcept {
  double cur = slot.load(std::memory_order_relaxed);
  while (std::isnan(cur) || better(v, cur)) {
    if (slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) return;
  }
}

}  // namespace

bool metrics_enabled() noexcept { return g_metrics_enabled.load(std::memory_order_relaxed); }

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
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

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1), min_(kNaN), max_(kNaN) {
  // Edges must be strictly ascending for bucket search and quantiles.
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
  update_extremum(min_, v, [](double a, double b) { return a < b; });
  update_extremum(max_, v, [](double a, double b) { return a > b; });
}

double Histogram::min() const noexcept { return min_.load(std::memory_order_relaxed); }

double Histogram::max() const noexcept { return max_.load(std::memory_order_relaxed); }

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double q) const {
  // Delegate to the snapshot implementation so live and snapshot percentiles
  // can never disagree on interpolation.
  HistogramSample sample;
  sample.bounds = bounds_;
  sample.buckets = bucket_counts();
  sample.count = count();
  sample.sum = sum();
  sample.min = min();
  sample.max = max();
  return sample.quantile(q);
}

void Histogram::merge_from(const HistogramSample& sample) noexcept {
  if (sample.count == 0) return;
  if (sample.bounds != bounds_ || sample.buckets.size() != buckets_.size()) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].fetch_add(sample.buckets[i], std::memory_order_relaxed);
  }
  count_.fetch_add(sample.count, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + sample.sum, std::memory_order_relaxed)) {
  }
  if (!std::isnan(sample.min)) {
    update_extremum(min_, sample.min, [](double a, double b) { return a < b; });
  }
  if (!std::isnan(sample.max)) {
    update_extremum(max_, sample.max, [](double a, double b) { return a > b; });
  }
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kNaN, std::memory_order_relaxed);
  max_.store(kNaN, std::memory_order_relaxed);
}

const std::vector<double>& default_latency_bounds() {
  // 1us .. 30s, roughly 1-3-10 per decade.
  static const std::vector<double> bounds = {
      1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
      1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0, 30.0};
  return bounds;
}

double HistogramSample::mean() const noexcept {
  return count == 0 ? kNaN : sum / static_cast<double>(count);
}

double HistogramSample::quantile(double q) const noexcept {
  if (count == 0) return kNaN;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Interpolate inside the bucket; the open-ended overflow bucket and
      // the first bucket fall back to the observed extremes.
      const double hi = i < bounds.size() ? bounds[i] : max;
      const double lo = i == 0 ? std::min(min, hi) : bounds[i - 1];
      const double frac =
          in_bucket == 0 ? 1.0
                         : (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return max;
}

bool MetricsSnapshot::empty() const noexcept {
  return counters.empty() && gauges.empty() && histograms.empty();
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  const auto find_by_name = [](auto& vec, const std::string& name) {
    return std::find_if(vec.begin(), vec.end(),
                        [&](const auto& s) { return s.name == name; });
  };
  for (const CounterSample& c : other.counters) {
    auto it = find_by_name(counters, c.name);
    if (it == counters.end()) {
      counters.push_back(c);
    } else {
      it->value += c.value;
    }
  }
  for (const GaugeSample& g : other.gauges) {
    auto it = find_by_name(gauges, g.name);
    if (it == gauges.end()) {
      gauges.push_back(g);
    } else {
      it->value = std::max(it->value, g.value);
    }
  }
  for (const HistogramSample& h : other.histograms) {
    auto it = find_by_name(histograms, h.name);
    if (it == histograms.end() || it->bounds != h.bounds) {
      histograms.push_back(h);
      continue;
    }
    for (std::size_t i = 0; i < it->buckets.size() && i < h.buckets.size(); ++i) {
      it->buckets[i] += h.buckets[i];
    }
    it->count += h.count;
    it->sum += h.sum;
    if (std::isnan(it->min) || h.min < it->min) it->min = h.min;
    if (std::isnan(it->max) || h.max > it->max) it->max = h.max;
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(counters.begin(), counters.end(), by_name);
  std::sort(gauges.begin(), gauges.end(), by_name);
  std::sort(histograms.begin(), histograms.end(), by_name);
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
  for (const auto& h : histograms) width = std::max(width, h.name.size());

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
  if (!histograms.empty()) {
    os << "histograms:" << std::left << std::setw(static_cast<int>(width) - 9) << ""
       << "  count        mean         p50          p95          p99          max\n";
    for (const HistogramSample& h : histograms) {
      os << "  " << std::left << std::setw(static_cast<int>(width)) << h.name << "  "
         << std::setw(11) << h.count << "  ";
      print_number(os, h.mean());
      os << "  ";
      print_number(os, h.p50());
      os << "  ";
      print_number(os, h.p95());
      os << "  ";
      print_number(os, h.p99());
      os << "  ";
      print_number(os, h.max);
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
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    if (i > 0) os << ",";
    os << "\"" << json_escape(h.name) << "\":{\"count\":" << h.count << ",\"sum\":";
    write_json_number(os, h.sum);
    os << ",\"min\":";
    write_json_number(os, h.min);
    os << ",\"max\":";
    write_json_number(os, h.max);
    os << ",\"bounds\":[";
    for (std::size_t j = 0; j < h.bounds.size(); ++j) {
      if (j > 0) os << ",";
      write_json_number(os, h.bounds[j]);
    }
    os << "],\"buckets\":[";
    for (std::size_t j = 0; j < h.buckets.size(); ++j) {
      if (j > 0) os << ",";
      os << h.buckets[j];
    }
    os << "]}";
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
    if (histograms_.find(name) != histograms_.end()) {
      throw_kind_collision(name, "counter", "histogram");
    }
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    if (counters_.find(name) != counters_.end()) throw_kind_collision(name, "gauge", "counter");
    if (histograms_.find(name) != histograms_.end()) {
      throw_kind_collision(name, "gauge", "histogram");
    }
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::span<const double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (counters_.find(name) != counters_.end()) {
      throw_kind_collision(name, "histogram", "counter");
    }
    if (gauges_.find(name) != gauges_.end()) throw_kind_collision(name, "histogram", "gauge");
    std::vector<double> edges(bounds.begin(), bounds.end());
    if (edges.empty()) edges = default_latency_bounds();
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(std::move(edges)))
             .first;
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
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.bounds = h->bounds();
    s.buckets = h->bucket_counts();
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    snap.histograms.push_back(std::move(s));
  }
  return snap;  // maps iterate sorted, so samples are name-sorted already
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void MetricsRegistry::absorb(const MetricsSnapshot& snapshot) {
  for (const CounterSample& c : snapshot.counters) counter(c.name).inc(c.value);
  for (const GaugeSample& g : snapshot.gauges) gauge(g.name).update_max(g.value);
  for (const HistogramSample& h : snapshot.histograms) {
    histogram(h.name, h.bounds).merge_from(h);
  }
}

MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

MetricsRegistry& active_registry() {
  return t_registry_override != nullptr ? *t_registry_override : registry();
}

std::uint64_t registry_generation() noexcept {
  return g_registry_generation.load(std::memory_order_relaxed);
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry* scratch)
    : previous_(t_registry_override), installed_(scratch != nullptr) {
  if (installed_) {
    t_registry_override = scratch;
    g_registry_generation.fetch_add(1, std::memory_order_relaxed);
  }
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  if (installed_) {
    t_registry_override = previous_;
    g_registry_generation.fetch_add(1, std::memory_order_relaxed);
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
           "dsss.sync.windows_below_tau", "dsss.correlator.profile_evals",
           "dsss.correlator.cross_evals",
           "ecc.rs.encode.calls", "ecc.rs.decode.calls", "ecc.rs.decode.ok",
           "ecc.rs.decode.fail", "ecc.rs.decode.erasures", "ecc.rs.decode.errors_corrected",
           "phy.tx.total", "phy.tx.delivered", "phy.tx.jammed", "phy.tx.out_of_range",
           "sim.events.processed",
           "obs.span.started", "obs.span.ended",
           "obs.flight.records", "obs.flight.dumps",
           "export.heartbeats",
       }) {
    (void)r.counter(name);
  }
  (void)r.gauge("sim.queue.depth.highwater");
  (void)r.gauge("sim.runs.completed");
  (void)r.gauge("sim.runs.total");
}

}  // namespace jrsnd::obs
