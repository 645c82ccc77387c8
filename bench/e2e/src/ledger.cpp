#include "ledger.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <unordered_map>

namespace e2e {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLedger::open(const char* name, std::uint64_t trace_id, bool replayed) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = current_;
  rec.trace_id = (trace_id == 0 && current_ >= 0)
                     ? spans_[static_cast<std::size_t>(current_)].trace_id
                     : trace_id;
  rec.replayed = replayed;
  spans_.push_back(rec);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  // Stamped last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = now_ns();
  return current_;
}

void SpanLedger::close(std::int32_t index) noexcept {
  SpanRecord& rec = spans_[static_cast<std::size_t>(index)];
  rec.end_ns = now_ns();
  current_ = rec.parent;
}

SpanTotals LedgerSummary::operator[](const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? SpanTotals{} : it->second;
}

LedgerSummary summarize(const SpanLedger& ledger, std::int64_t run_ns) {
  // Aggregate by literal address first (cheap), then merge by name: equal
  // literals from different translation units may not share an address.
  std::unordered_map<const char*, SpanTotals> by_ptr;
  LedgerSummary out;
  const std::vector<SpanRecord>& spans = ledger.spans();
  for (const SpanRecord& s : spans) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    SpanTotals& t = by_ptr[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur;
    if (s.parent >= 0) {
      by_ptr[spans[static_cast<std::size_t>(s.parent)].name].self_ns -= dur;
    } else if (s.replayed) {
      out.replay_ns += dur;
    } else {
      out.covered_ns += dur;
    }
  }
  for (const auto& [name, t] : by_ptr) {
    SpanTotals& dst = out.by_name[name];
    dst.count += t.count;
    dst.total_ns += t.total_ns;
    dst.self_ns += t.self_ns;
  }
  out.wall_ns = run_ns - out.replay_ns;
  return out;
}

std::vector<double> durations(const SpanLedger& ledger, const char* name) {
  std::vector<double> out;
  const std::string_view want(name);
  for (const SpanRecord& s : ledger.spans()) {
    if (want == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

bool Checks::expect(bool ok, const char* what) {
  tally(1, ok ? 0 : 1, what);
  return ok;
}

void Checks::tally(std::uint64_t checked, std::uint64_t bad, const char* what) {
  attempted += checked;
  failed += bad;
  if (bad > 0 && failures.size() < 20) failures.emplace_back(what);
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  q.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    q.q1 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive", n=4): m = n + 1, j = i*m // 4
  // clamped to [1, n-1], delta = i*m - 4j, linear blend of data[j-1], data[j].
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void MetricSet::add(const std::string& name, const char* layer, const char* unit,
                    const char* better, std::optional<double> value, std::size_t n) {
  if (value && !std::isfinite(*value)) value.reset();
  Metric m{name, layer, unit, better, value, value ? n : 0, 0.0, 0.0};
  if (value) m.q1 = m.q3 = *value;
  entries_.push_back(std::move(m));
}

void MetricSet::add_median(const std::string& name, const char* unit, const char* better,
                           const std::vector<double>& samples) {
  const Quartiles q = quartiles(samples);
  entries_.push_back(Metric{name, "e2e", unit, better, q.median, samples.size(), q.q1, q.q3});
}

void MetricSet::add_reps(const std::string& name, const char* unit, const char* better,
                         const std::vector<double>& samples) {
  const Quartiles q = quartiles(samples);
  const double best = std::string_view(better) == "higher" ? q.q3 : q.q1;
  entries_.push_back(Metric{name, "e2e", unit, better, best, samples.size(), q.q1, q.q3});
}

std::optional<double> ratio(double num, double den) {
  if (den == 0.0) return std::nullopt;
  return num / den;
}

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void json_number(std::string& out, std::optional<double> v) {
  if (!v || !std::isfinite(*v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, *v);  // shortest round-trip form
  out.append(buf, res.ptr);
}

namespace {

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

bool write_trace(const std::string& path, const std::string& workload, std::uint64_t seed,
                 const SpanLedger& ledger, std::int64_t run_start_ns,
                 const LedgerSummary& summary, std::int64_t untraced_ns,
                 const std::map<std::string, std::string>& layer_of) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::string out;
  out.reserve(1u << 20);
  const auto flush = [&] {
    std::fwrite(out.data(), 1, out.size(), f);
    out.clear();
  };
  out += "{\"workload\":";
  json_string(out, workload);
  out += ",\"seed\":";
  append_int(out, static_cast<std::int64_t>(seed));
  out += ",\"wall_ns\":";
  append_int(out, summary.wall_ns);
  out += ",\"replay_ns\":";
  append_int(out, summary.replay_ns);
  out += ",\"untraced_wall_ns\":";
  append_int(out, untraced_ns);
  out += ",\"spans\":[";
  bool first = true;
  for (const SpanRecord& s : ledger.spans()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":";
    json_string(out, s.name);
    out += ",\"start_ns\":";
    append_int(out, s.start_ns - run_start_ns);
    out += ",\"end_ns\":";
    append_int(out, s.end_ns - run_start_ns);
    out += ",\"parent\":";
    append_int(out, s.parent);
    out += ",\"trace_id\":";
    append_int(out, static_cast<std::int64_t>(s.trace_id));
    out += s.replayed ? ",\"replayed\":true}" : ",\"replayed\":false}";
    if (out.size() > (1u << 20)) flush();
  }
  out += "\n],\"totals\":{";
  first = true;
  for (const auto& [name, t] : summary.by_name) {
    out += first ? "\n" : ",\n";
    first = false;
    json_string(out, name);
    out += ":{\"layer\":";
    const auto it = layer_of.find(name);
    json_string(out, it == layer_of.end() ? "bench" : it->second);
    out += ",\"count\":";
    append_int(out, static_cast<std::int64_t>(t.count));
    out += ",\"total_ns\":";
    append_int(out, t.total_ns);
    out += ",\"self_ns\":";
    append_int(out, t.self_ns);
    out += '}';
  }
  out += "\n}}\n";
  flush();
  return std::fclose(f) == 0;
}

}  // namespace e2e
