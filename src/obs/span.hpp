// Causal span tracing (docs/observability.md).
//
// A trace is one discovery attempt; a span is one pipeline stage inside it
// (a D-NDP sub-session, a chip transmit, the sync scan, an RS decode, a
// seal/unseal). Spans form a tree: the thread-local current span context is
// the parent of any span opened while it is alive, so the causal chain
// tx -> channel -> rx -> handshake falls out of the call structure without
// threading ids through every signature.
//
// Two recording planes, independently switched:
//   * the flight recorder (obs/flight_recorder.hpp) — always on, per-thread
//     fixed-capacity binary rings, zero heap allocation in steady state;
//   * JSONL `span.begin` / `span.end` TraceEvents through the process event
//     log — only when tracing_enabled(), sharing the trace schema every
//     other event uses.
//
// Determinism contract: span ids restart at 1 for every root span and count
// up per trace, so a trace's span tree is a pure function of the seeded
// call sequence — serial and parallel Monte-Carlo runs produce identical
// span records (wall-clock fields are opt-in via set_span_wall_clock and
// off by default for exactly this reason).
#pragma once

#include <atomic>
#include <cstdint>

namespace jrsnd::obs {

/// Why a discovery stage (and transitively an attempt) failed. Every layer
/// that can kill a message reports its verdict through the thread-local
/// loss-reason channel below; the engine folds the reports into exactly one
/// stage per failed attempt (docs/observability.md "loss attribution").
enum class LossStage : std::uint8_t {
  None = 0,       ///< no loss recorded (successful stage)
  NoSharedCode,   ///< the pair's code intersection was empty
  OutOfRange,     ///< endpoints not physical neighbors
  Jammed,         ///< the jammer struck the transmission
  Corrupt,        ///< delivered but malformed / MAC-rejected (tampering)
  DecodeFail,     ///< chip pipeline could not sync or RS-decode
  Timeout,        ///< retry budget exhausted waiting for a response
  Fault,          ///< an injected fault (drop/truncate) killed it
  Crash,          ///< an endpoint was inside an injected crash window
};

inline constexpr std::uint8_t kLossStageCount = 9;

[[nodiscard]] const char* loss_stage_name(LossStage stage) noexcept;

// --- thread-local loss-reason channel ---------------------------------------
//
// PHY layers (AbstractPhy, ChipPhy, FaultyPhy) set the reason when they fail
// or kill a transmission; the protocol engine reads-and-clears it after a
// failed exchange. Plain thread-local stores: no allocation, no locks.

void set_loss_reason(LossStage stage) noexcept;
/// Returns the pending reason and clears it (None when nothing reported).
[[nodiscard]] LossStage take_loss_reason() noexcept;
[[nodiscard]] LossStage peek_loss_reason() noexcept;

// --- span context ------------------------------------------------------------

struct SpanContext {
  std::uint64_t trace_id = 0;  ///< discovery-attempt id (0 = no active trace)
  std::uint32_t span_id = 0;   ///< 1-based, per-trace
  std::uint32_t parent_id = 0; ///< 0 for roots
};

/// The innermost live span on this thread ({0,0,0} when none). TracingPhy
/// stamps this onto TxRecords — the "frame metadata" that lets a trace file
/// tie a PHY transmission back to the handshake stage that sent it.
[[nodiscard]] SpanContext current_span() noexcept;

/// Wall-clock duration fields (`wall_us`) on span.end events. Default off:
/// wall time is nondeterministic and would break the serial-vs-parallel
/// byte-identity of traces. Flight-recorder records always carry wall time
/// (they never leave the process unless a postmortem dumps them).
namespace detail {
extern std::atomic<bool> g_span_wall;
}  // namespace detail

[[nodiscard]] inline bool span_wall_clock_enabled() noexcept {
  return detail::g_span_wall.load(std::memory_order_relaxed);
}
void set_span_wall_clock(bool enabled) noexcept;

/// Seconds on the process clock (obs/clock.hpp) since its first read. The
/// one wall origin shared by span records, flight notes and profiling
/// regions, so records from all three order correctly in one dump.
[[nodiscard]] double wall_seconds() noexcept;

/// Deterministic trace-id mix (splitmix64 over the xor-folded inputs) —
/// the helper engines use to derive attempt trace ids from (seed, a, b, k).
[[nodiscard]] std::uint64_t derive_trace_id(std::uint64_t salt, std::uint64_t a,
                                            std::uint64_t b, std::uint64_t k) noexcept;

/// RAII scoped span. Constructing pushes the span as the thread's current
/// context and records a begin; destructing records the end (with ok/loss/
/// dur annotations) and pops back to the parent. `name` must have static
/// storage duration (string literals) — records store the pointer.
class Span {
 public:
  /// Child of the thread's current span (or a detached trace-0 span when no
  /// root is active — still flight-recorded, ids from a thread counter).
  explicit Span(const char* name) noexcept;
  /// Root span: starts trace `trace_id`, resetting the per-trace span
  /// counter so ids are deterministic per attempt.
  Span(const char* name, std::uint64_t trace_id) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_ok(bool ok) noexcept { ok_ = ok; }
  void set_loss(LossStage stage) noexcept { loss_ = stage; }
  /// Deterministic (virtual/simulated) duration reported on the end record.
  void set_dur(double seconds) noexcept {
    dur_ = seconds;
    has_dur_ = true;
  }
  /// Up to two numeric annotations carried on the end record (e.g. the
  /// sub-session's code id). Keys must be string literals.
  void with_u64(const char* key, std::uint64_t value) noexcept;

  [[nodiscard]] const SpanContext& context() const noexcept { return ctx_; }

 private:
  void begin(const char* name) noexcept;

  const char* name_;
  SpanContext ctx_;
  SpanContext saved_current_;
  std::uint32_t saved_next_span_ = 0;
  bool is_root_ = false;
  bool ok_ = true;
  bool has_dur_ = false;
  LossStage loss_ = LossStage::None;
  double dur_ = 0.0;
  const char* ann_key_[2] = {nullptr, nullptr};
  std::uint64_t ann_val_[2] = {0, 0};
  double start_wall_ = 0.0;  ///< wall_seconds() at begin; 0 when nothing reads it
};

}  // namespace jrsnd::obs
