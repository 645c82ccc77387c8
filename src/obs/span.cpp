#include "obs/span.hpp"

#include <atomic>

#include "obs/clock.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"

namespace jrsnd::obs {

namespace detail {

std::atomic<bool> g_span_wall{false};

}  // namespace detail

namespace {

const char* const kLossStageNames[kLossStageCount] = {
    "none",        "no_shared_code", "out_of_range", "jammed", "corrupt",
    "decode_fail", "timeout",        "fault",        "crash",
};

struct TraceState {
  SpanContext current{};
  std::uint32_t next_span = 1;
};

thread_local TraceState t_trace;
thread_local LossStage t_loss = LossStage::None;

/// The wall-clock reading a span record needs now: one read shared by the
/// flight record and `wall_us`, none when both are off.
double span_wall_now() noexcept {
  return flight_enabled() || span_wall_clock_enabled() ? wall_seconds() : 0.0;
}

}  // namespace

double wall_seconds() noexcept { return static_cast<double>(clock_ns()) * 1e-9; }

const char* loss_stage_name(LossStage stage) noexcept {
  const auto idx = static_cast<std::uint8_t>(stage);
  return idx < kLossStageCount ? kLossStageNames[idx] : "?";
}

void set_loss_reason(LossStage stage) noexcept { t_loss = stage; }

LossStage take_loss_reason() noexcept {
  const LossStage stage = t_loss;
  t_loss = LossStage::None;
  return stage;
}

LossStage peek_loss_reason() noexcept { return t_loss; }

SpanContext current_span() noexcept { return t_trace.current; }

void set_span_wall_clock(bool enabled) noexcept {
  detail::g_span_wall.store(enabled, std::memory_order_relaxed);
}

std::uint64_t derive_trace_id(std::uint64_t salt, std::uint64_t a, std::uint64_t b,
                              std::uint64_t k) noexcept {
  // splitmix64 over the golden-ratio-spread inputs; the constant offsets keep
  // (a, b) and (b, a) distinct traces.
  std::uint64_t x = salt;
  x += 0x9E3779B97F4A7C15ULL * (a + 1);
  x += 0xC2B2AE3D27D4EB4FULL * (b + 2);
  x += 0xD6E8FEB86659FD93ULL * (k + 3);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x != 0 ? x : 1;  // 0 is the "no active trace" sentinel
}

Span::Span(const char* name) noexcept : name_(name) {
  saved_current_ = t_trace.current;
  saved_next_span_ = t_trace.next_span;
  ctx_.trace_id = t_trace.current.trace_id;
  ctx_.span_id = t_trace.next_span++;
  ctx_.parent_id = t_trace.current.span_id;
  t_trace.current = ctx_;
  begin(name);
}

Span::Span(const char* name, std::uint64_t trace_id) noexcept : name_(name), is_root_(true) {
  saved_current_ = t_trace.current;
  saved_next_span_ = t_trace.next_span;
  ctx_.trace_id = trace_id;
  ctx_.span_id = 1;
  ctx_.parent_id = 0;
  t_trace.current = ctx_;
  t_trace.next_span = 2;
  begin(name);
}

void Span::begin(const char* name) noexcept {
  start_wall_ = span_wall_now();
  if (flight_enabled()) {
    FlightRecord rec;
    rec.t_wall = start_wall_;
    rec.t_sim = current_sim_time();
    rec.trace_id = ctx_.trace_id;
    rec.span_id = ctx_.span_id;
    rec.parent_id = ctx_.parent_id;
    rec.name = name;
    rec.kind = FlightKind::SpanBegin;
    flight_record(rec);
  }
  if (tracing_enabled()) {
    TraceEvent ev("span.begin");
    ev.with("trace", ctx_.trace_id)
        .with("span", static_cast<std::uint64_t>(ctx_.span_id))
        .with("parent", static_cast<std::uint64_t>(ctx_.parent_id))
        .with("name", std::string(name));
    event_log().emit(std::move(ev));
  }
}

void Span::with_u64(const char* key, std::uint64_t value) noexcept {
  for (std::size_t i = 0; i < 2; ++i) {
    if (ann_key_[i] == nullptr || ann_key_[i] == key) {
      ann_key_[i] = key;
      ann_val_[i] = value;
      return;
    }
  }
}

Span::~Span() {
  t_trace.current = saved_current_;
  t_trace.next_span = is_root_ ? saved_next_span_ : t_trace.next_span;
  const double end_wall = span_wall_now();
  if (flight_enabled()) {
    FlightRecord rec;
    rec.t_wall = end_wall;
    rec.t_sim = current_sim_time();
    rec.trace_id = ctx_.trace_id;
    rec.span_id = ctx_.span_id;
    rec.parent_id = ctx_.parent_id;
    rec.name = name_;
    rec.kind = FlightKind::SpanEnd;
    rec.ok = ok_;
    rec.loss = loss_;
    flight_record(rec);
  }
  if (tracing_enabled()) {
    TraceEvent ev("span.end", ok_ ? Severity::Info : Severity::Warn);
    ev.with("trace", ctx_.trace_id)
        .with("span", static_cast<std::uint64_t>(ctx_.span_id))
        .with("parent", static_cast<std::uint64_t>(ctx_.parent_id))
        .with("name", std::string(name_))
        .with("ok", ok_);
    if (loss_ != LossStage::None) ev.with("loss", std::string(loss_stage_name(loss_)));
    if (has_dur_) ev.with("dur", dur_);
    for (std::size_t i = 0; i < 2; ++i) {
      if (ann_key_[i] != nullptr) ev.with(ann_key_[i], ann_val_[i]);
    }
    if (span_wall_clock_enabled()) ev.with("wall_us", (end_wall - start_wall_) * 1e6);
    event_log().emit(std::move(ev));
  }
}

}  // namespace jrsnd::obs
