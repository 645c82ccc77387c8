#include "core/tracing_phy.hpp"

#include <ostream>

#include "obs/event_log.hpp"
#include "obs/sinks.hpp"
#include "obs/span.hpp"

namespace jrsnd::core {

const char* tx_class_name(TxClass cls) noexcept {
  switch (cls) {
    case TxClass::Hello: return "HELLO";
    case TxClass::Confirm: return "CONFIRM";
    case TxClass::Auth: return "AUTH";
    case TxClass::SessionUnicast: return "MNDP-UNICAST";
    case TxClass::SessionHello: return "MNDP-HELLO";
    case TxClass::SessionConfirm: return "MNDP-CONFIRM";
  }
  return "?";
}

bool TracingPhy::transmit_into(NodeId from, NodeId to, TxCode code, TxClass cls,
                               const BitVector& payload, BitVector& out) {
  const bool delivered = inner_.transmit_into(from, to, code, cls, payload, out);
  const obs::SpanContext span = obs::current_span();
  records_.push_back(TxRecord{from, to, code.id, cls, payload.size(), delivered, now_.seconds(),
                              next_seq_++, span.trace_id, span.span_id});
  return delivered;
}

std::vector<TxRecord> TracingPhy::by_class(TxClass cls) const {
  std::vector<TxRecord> out;
  for (const TxRecord& r : records_) {
    if (r.cls == cls) out.push_back(r);
  }
  return out;
}

std::size_t TracingPhy::delivered_count() const noexcept {
  std::size_t count = 0;
  for (const TxRecord& r : records_) count += r.delivered;
  return count;
}

void TracingPhy::print(std::ostream& os) const {
  for (const TxRecord& r : records_) {
    os << "  " << raw(r.from) << " -> " << raw(r.to) << "  " << tx_class_name(r.cls);
    if (r.code == kInvalidCode) {
      os << " (session code)";
    } else {
      os << " (C_" << raw(r.code) << ")";
    }
    os << "  " << r.payload_bits << "b  " << (r.delivered ? "delivered" : "LOST") << "\n";
  }
}

void TracingPhy::print_jsonl(std::ostream& os) const {
  for (const TxRecord& r : records_) {
    obs::TraceEvent ev("phy.tx", r.delivered ? obs::Severity::Info : obs::Severity::Warn);
    ev.t = r.t;
    ev.seq = r.seq;
    ev.with("from", std::uint64_t{raw(r.from)})
        .with("to", std::uint64_t{raw(r.to)})
        .with("class", tx_class_name(r.cls));
    if (r.code == kInvalidCode) {
      ev.with("session_code", true);
    } else {
      ev.with("code", std::uint64_t{raw(r.code)});
    }
    ev.with("bits", std::uint64_t{r.payload_bits}).with("delivered", r.delivered);
    if (r.trace_id != 0) {
      ev.with("trace", r.trace_id).with("span", std::uint64_t{r.span_id});
    }
    obs::write_jsonl(os, ev);
  }
}

}  // namespace jrsnd::core
