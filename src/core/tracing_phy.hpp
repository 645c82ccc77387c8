// Protocol observability: a PhyModel decorator that records every
// transmission crossing the air — who, to whom, which code class, payload
// size, and whether it survived the jammer. Wraps any PHY (abstract or
// chip-level) without touching the engines; tests assert on exact message
// sequences and examples print human-readable traces of the handshakes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/phy_model.hpp"

namespace jrsnd::core {

struct TxRecord {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  CodeId code = kInvalidCode;  ///< pool code id; kInvalidCode = session code
  TxClass cls = TxClass::Hello;
  std::size_t payload_bits = 0;
  bool delivered = false;
  // Stamped by TracingPhy at capture; appended last so existing
  // aggregate-initialized literals stay valid.
  double t = 0.0;          ///< simulated seconds (set_time), 0 when untimed
  std::uint64_t seq = 0;   ///< 1-based monotonic capture order
  // Causal frame metadata: the span context live on the transmitting thread
  // at capture (obs::current_span()), 0 when no trace/span was active. This
  // is what ties a PHY frame back to the discovery attempt and handshake
  // stage that sent it.
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
};

[[nodiscard]] const char* tx_class_name(TxClass cls) noexcept;

class TracingPhy final : public PhyModel {
 public:
  explicit TracingPhy(PhyModel& inner) : inner_(inner) {}

  void begin_subsession(NodeId a, NodeId b, CodeId code) override {
    inner_.begin_subsession(a, b, code);
  }

  [[nodiscard]] std::optional<BitVector> transmit(NodeId from, NodeId to, TxCode code,
                                                  TxClass cls,
                                                  const BitVector& payload) override {
    return into_optional(from, to, code, cls, payload);
  }

  /// Forwards to the inner PHY's transmit_into and records the outcome.
  [[nodiscard]] bool transmit_into(NodeId from, NodeId to, TxCode code, TxClass cls,
                                   const BitVector& payload, BitVector& out) override;

  [[nodiscard]] const std::vector<TxRecord>& records() const noexcept { return records_; }
  void clear() noexcept { records_.clear(); }

  /// Records matching a class (e.g. all HELLOs).
  [[nodiscard]] std::vector<TxRecord> by_class(TxClass cls) const;

  /// Delivered / total counts.
  [[nodiscard]] std::size_t delivered_count() const noexcept;

  /// Sets the simulated time stamped onto subsequent records, for drivers
  /// that keep a timeline.
  void set_time(TimePoint now) noexcept { now_ = now; }
  [[nodiscard]] TimePoint time() const noexcept { return now_; }

  /// Renders the trace as one line per transmission.
  void print(std::ostream& os) const;

  /// Renders the trace as JSONL "phy.tx" events in the obs trace schema
  /// (docs/observability.md): one flat object per line with reserved keys
  /// t/seq/sev/event — the same format `jrsnd analyze` reads.
  void print_jsonl(std::ostream& os) const;

 private:
  PhyModel& inner_;
  std::vector<TxRecord> records_;
  TimePoint now_ = kSimStart;
  std::uint64_t next_seq_ = 1;
};

}  // namespace jrsnd::core
