#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>
#include <tuple>

#include "obs/sinks.hpp"

namespace jrsnd::obs {

namespace {

bool field_u64(const TraceEvent& ev, std::string_view key, std::uint64_t& out) {
  const FieldValue* v = ev.field(key);
  if (v == nullptr) return false;
  if (const auto* u = std::get_if<std::uint64_t>(v)) {
    out = *u;
    return true;
  }
  if (const auto* i = std::get_if<std::int64_t>(v); i != nullptr && *i >= 0) {
    out = static_cast<std::uint64_t>(*i);
    return true;
  }
  if (const auto* d = std::get_if<double>(v); d != nullptr && *d >= 0) {
    out = static_cast<std::uint64_t>(*d);
    return true;
  }
  return false;
}

bool field_double(const TraceEvent& ev, std::string_view key, double& out) {
  const FieldValue* v = ev.field(key);
  if (v == nullptr) return false;
  if (const auto* d = std::get_if<double>(v)) {
    out = *d;
    return true;
  }
  if (const auto* u = std::get_if<std::uint64_t>(v)) {
    out = static_cast<double>(*u);
    return true;
  }
  if (const auto* i = std::get_if<std::int64_t>(v)) {
    out = static_cast<double>(*i);
    return true;
  }
  return false;
}

bool field_true(const TraceEvent& ev, std::string_view key) {
  const FieldValue* v = ev.field(key);
  const bool* b = v != nullptr ? std::get_if<bool>(v) : nullptr;
  return b != nullptr && *b;
}

LossStage parse_loss(const TraceEvent& ev) {
  const FieldValue* v = ev.field("loss");
  if (v == nullptr) return LossStage::None;
  const auto* s = std::get_if<std::string>(v);
  if (s == nullptr) return LossStage::None;
  for (std::uint8_t i = 0; i < kLossStageCount; ++i) {
    const auto stage = static_cast<LossStage>(i);
    if (*s == loss_stage_name(stage)) return stage;
  }
  return LossStage::None;
}

}  // namespace

bool read_trace_jsonl(std::istream& is, std::vector<TraceEvent>& out, TraceReadError* error) {
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::optional<TraceEvent> ev = parse_jsonl_line(line);
    if (!ev.has_value()) {
      if (error != nullptr) {
        error->line = line_no;
        error->message = "malformed JSONL trace line";
      }
      return false;
    }
    out.push_back(std::move(*ev));
  }
  return true;
}

void normalize_trace(std::vector<TraceEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.t < b.t; });
  std::uint64_t seq = 0;
  for (TraceEvent& ev : events) ev.seq = ++seq;
}

double nearest_rank(const std::vector<double>& sorted, std::uint32_t percent) noexcept {
  if (sorted.empty()) return std::nan("");
  const std::size_t rank = (std::size_t{percent} * sorted.size() + 99) / 100;
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

TraceAnalysis analyze_trace(const std::vector<TraceEvent>& events) {
  TraceAnalysis analysis;
  analysis.events = events.size();
  if (!events.empty()) analysis.t_min = analysis.t_max = events.front().t;

  // Open begins keyed by (trace, span, t): span ids restart per trace, and
  // detached spans all share trace 0, so the run index disambiguates.
  using SpanKey = std::tuple<std::uint64_t, std::uint32_t, double>;
  std::map<SpanKey, SpanRecord> open;
  std::map<std::uint64_t, std::size_t> spans_per_trace;

  for (const TraceEvent& ev : events) {
    analysis.t_min = std::min(analysis.t_min, ev.t);
    analysis.t_max = std::max(analysis.t_max, ev.t);
    ++analysis.by_event[ev.name];
    ++analysis.by_severity[static_cast<std::size_t>(ev.severity)];
    if (ev.name == "dndp.pair") analysis.dndp_pairs.add(field_true(ev, "discovered"));
    if (ev.name == "phy.tx") analysis.phy_tx.add(field_true(ev, "delivered"));
    if (ev.name != "span.begin" && ev.name != "span.end") continue;
    ++analysis.span_events;
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    std::uint64_t parent = 0;
    (void)field_u64(ev, "trace", trace);
    (void)field_u64(ev, "span", span);
    (void)field_u64(ev, "parent", parent);
    const SpanKey key{trace, static_cast<std::uint32_t>(span), ev.t};

    if (ev.name == "span.begin") {
      SpanRecord rec;
      rec.trace_id = trace;
      rec.span_id = static_cast<std::uint32_t>(span);
      rec.parent_id = static_cast<std::uint32_t>(parent);
      rec.t = ev.t;
      if (const FieldValue* n = ev.field("name")) {
        if (const auto* s = std::get_if<std::string>(n)) rec.name = *s;
      }
      // A begin already open under this key means its end never made it
      // (crash, truncation); count the older one as unmatched.
      if (!open.emplace(key, std::move(rec)).second) ++analysis.unmatched_begin;
      continue;
    }

    const auto it = open.find(key);
    if (it == open.end()) {
      ++analysis.unmatched_end;
      continue;
    }
    SpanRecord rec = std::move(it->second);
    open.erase(it);
    if (const FieldValue* okv = ev.field("ok")) {
      if (const auto* b = std::get_if<bool>(okv)) rec.ok = *b;
    }
    rec.loss = parse_loss(ev);
    rec.has_dur = field_double(ev, "dur", rec.dur);
    rec.has_wall = field_double(ev, "wall_us", rec.wall_us);
    if (rec.name.empty()) {
      if (const FieldValue* n = ev.field("name")) {
        if (const auto* s = std::get_if<std::string>(n)) rec.name = *s;
      }
    }

    StageStats& stage = analysis.stages[rec.name];
    ++stage.count;
    if (!rec.ok) ++stage.failed;
    if (rec.has_dur) {
      stage.total_dur += rec.dur;
      stage.max_dur = std::max(stage.max_dur, rec.dur);
    }
    ++spans_per_trace[rec.trace_id];

    if (rec.parent_id == 0 && rec.trace_id != 0) {
      AttemptSummary attempt;
      attempt.trace_id = rec.trace_id;
      attempt.name = rec.name;
      attempt.t = rec.t;
      attempt.ok = rec.ok;
      attempt.loss = rec.loss;
      attempt.dur = rec.dur;
      attempt.wall_us = rec.wall_us;
      analysis.attempts.push_back(std::move(attempt));
      if (!rec.ok) {
        ++analysis.failed_attempts;
        if (rec.loss == LossStage::None) {
          ++analysis.unattributed_failures;
        } else {
          ++analysis.loss_counts[static_cast<std::uint8_t>(rec.loss)];
        }
      }
    }
    analysis.spans.push_back(std::move(rec));
  }

  analysis.unmatched_begin += open.size();
  for (AttemptSummary& attempt : analysis.attempts) {
    const auto it = spans_per_trace.find(attempt.trace_id);
    attempt.spans = it != spans_per_trace.end() ? it->second : 0;
  }
  return analysis;
}

namespace {

void print_ratio(std::ostream& os, const char* label, const DeliveryCount& count,
                 const char* ok_word) {
  if (count.total == 0) return;
  os << label << count.ok << " " << ok_word << " / " << count.total << " total (" << std::fixed
     << std::setprecision(1)
     << 100.0 * static_cast<double>(count.ok) / static_cast<double>(count.total) << "%)\n";
}

/// Per-stage p50/p95/p99/max of wall_us (`by_wall`) or of dur.
void print_stage_latency(std::ostream& os, const TraceAnalysis& analysis, std::size_t width,
                         bool by_wall) {
  std::map<std::string, std::vector<double>> samples;
  for (const SpanRecord& span : analysis.spans) {
    if (by_wall ? span.has_wall : span.has_dur) {
      samples[span.name].push_back(by_wall ? span.wall_us : span.dur);
    }
  }
  if (samples.empty()) return;
  os << (by_wall ? "\nstage latency (wall_us):\n" : "\nstage latency (dur, s):\n") << "  "
     << std::left << std::setw(static_cast<int>(width)) << "stage" << std::right << std::setw(8)
     << "count";
  for (const char* label : {"p50", "p95", "p99", "max"}) os << "  " << std::setw(10) << label;
  os << "\n";
  for (auto& [name, values] : samples) {
    std::sort(values.begin(), values.end());
    os << "  " << std::left << std::setw(static_cast<int>(width)) << name << std::right
       << std::setw(8) << values.size() << std::fixed << std::setprecision(by_wall ? 3 : 6);
    for (const std::uint32_t percent : {50u, 95u, 99u, 100u}) {
      os << "  " << std::setw(10) << nearest_rank(values, percent);
    }
    os << "\n";
  }
}

}  // namespace

void print_analysis(std::ostream& os, const TraceAnalysis& analysis, std::size_t top_k) {
  const bool by_wall = std::any_of(analysis.spans.begin(), analysis.spans.end(),
                                   [](const SpanRecord& s) { return s.has_wall; });
  os << "trace: " << analysis.events << " events, " << analysis.span_events
     << " span records, " << analysis.spans.size() << " spans closed\n";
  if (analysis.events > 0) {
    os << "t range: [" << std::fixed << std::setprecision(3) << analysis.t_min << ", "
       << analysis.t_max << "]\n";
    os << "severity:";
    for (std::size_t i = 0; i < analysis.by_severity.size(); ++i) {
      os << " " << severity_name(static_cast<Severity>(i)) << "=" << analysis.by_severity[i];
    }
    os << "\nevents:\n";
    for (const auto& [name, count] : analysis.by_event) {
      os << "  " << std::left << std::setw(24) << name << std::right << " " << count << "\n";
    }
    print_ratio(os, "dndp.pair: ", analysis.dndp_pairs, "discovered");
    print_ratio(os, "phy.tx: ", analysis.phy_tx, "delivered");
  }
  os << "attempts: " << analysis.attempts.size() << " total, "
     << analysis.attempts.size() - analysis.failed_attempts << " ok, "
     << analysis.failed_attempts << " failed";
  if (analysis.unmatched_begin > 0 || analysis.unmatched_end > 0) {
    os << " (" << analysis.unmatched_begin << " unmatched begin, " << analysis.unmatched_end
       << " unmatched end)";
  }
  os << "\n";

  if (analysis.failed_attempts > 0) {
    os << "\nloss attribution (" << analysis.failed_attempts << " failed attempts):\n";
    for (std::uint8_t i = 1; i < kLossStageCount; ++i) {
      const std::uint64_t n = analysis.loss_counts[i];
      if (n == 0) continue;
      const double pct =
          100.0 * static_cast<double>(n) / static_cast<double>(analysis.failed_attempts);
      os << "  " << std::left << std::setw(16) << loss_stage_name(static_cast<LossStage>(i))
         << std::right << std::setw(8) << n << "  " << std::fixed << std::setprecision(1)
         << std::setw(5) << pct << "%\n";
    }
    if (analysis.unattributed_failures > 0) {
      os << "  " << std::left << std::setw(16) << "UNATTRIBUTED" << std::right << std::setw(8)
         << analysis.unattributed_failures << "\n";
    }
    os << "  attribution " << (analysis.attribution_complete() ? "complete" : "INCOMPLETE")
       << "\n";
  }

  if (!analysis.stages.empty()) {
    std::size_t width = 12;
    for (const auto& [name, stats] : analysis.stages) width = std::max(width, name.size());
    os << "\nstages:" << std::setw(static_cast<int>(width) - 4) << ""
       << "  count     failed    mean_dur     max_dur\n";
    for (const auto& [name, stats] : analysis.stages) {
      const double mean =
          stats.count > 0 ? stats.total_dur / static_cast<double>(stats.count) : 0.0;
      os << "  " << std::left << std::setw(static_cast<int>(width)) << name << std::right
         << std::setw(8) << stats.count << std::setw(10) << stats.failed << "  " << std::fixed
         << std::setprecision(6) << std::setw(10) << mean << "  " << std::setw(10)
         << stats.max_dur << "\n";
    }
    print_stage_latency(os, analysis, width, by_wall);
  }

  if (!analysis.attempts.empty() && top_k > 0) {
    std::vector<const AttemptSummary*> slowest;
    slowest.reserve(analysis.attempts.size());
    for (const AttemptSummary& a : analysis.attempts) slowest.push_back(&a);
    std::stable_sort(slowest.begin(), slowest.end(),
                     [by_wall](const AttemptSummary* a, const AttemptSummary* b) {
                       return (by_wall ? a->wall_us : a->dur) > (by_wall ? b->wall_us : b->dur);
                     });
    if (slowest.size() > top_k) slowest.resize(top_k);
    os << "\nslowest attempts (by " << (by_wall ? "wall_us" : "dur") << "):\n";
    os << "  trace              t         " << (by_wall ? "wall_us" : "dur") << "      spans  outcome\n";
    for (const AttemptSummary* a : slowest) {
      os << "  " << std::hex << std::setw(16) << std::setfill('0') << a->trace_id << std::dec
         << std::setfill(' ') << "  " << std::fixed << std::setprecision(3) << std::setw(8)
         << a->t << "  " << std::setprecision(6) << std::setw(10)
         << (by_wall ? a->wall_us : a->dur) << "  " << std::setw(5) << a->spans << "  "
         << (a->ok ? "ok" : loss_stage_name(a->loss)) << "\n";
    }
  }
}

}  // namespace jrsnd::obs
