#include "core/abstract_phy.hpp"

#include "obs/metrics_registry.hpp"
#include "obs/span.hpp"

namespace jrsnd::core {

AbstractPhy::AbstractPhy(const sim::Topology& topology, const adversary::Jammer& jammer,
                         Rng& rng)
    : topology_(topology), jammer_(jammer), rng_(rng) {}

void AbstractPhy::begin_subsession(NodeId /*a*/, NodeId /*b*/, CodeId code) {
  // One draw per sub-session: the HELLO fate and the follow-up-group fate.
  hello_jammed_ = jammer_.jams(code, adversary::MessageClass::Hello, rng_);
  followups_jammed_ = jammer_.jams(code, adversary::MessageClass::Followup, rng_);
}

bool AbstractPhy::transmit_into(NodeId from, NodeId to, TxCode code, TxClass cls,
                                const BitVector& payload, BitVector& out) {
  JRSND_COUNT("phy.tx.total");
  if (!topology_.are_neighbors(from, to)) {
    ++out_of_range_;
    JRSND_COUNT("phy.tx.out_of_range");
    obs::set_loss_reason(obs::LossStage::OutOfRange);
    return false;
  }

  bool is_jammed = false;
  switch (cls) {
    case TxClass::Hello:
      is_jammed = hello_jammed_;
      break;
    case TxClass::Confirm:
    case TxClass::Auth:
      // The whole follow-up trio shares one group-level jam event; charging
      // it to the first lost message suffices, since one jammed message
      // fails the sub-session either way.
      if (followups_jammed_) {
        is_jammed = true;
        followups_jammed_ = false;  // the group's jam budget is spent
      }
      break;
    case TxClass::SessionUnicast:
    case TxClass::SessionHello:
    case TxClass::SessionConfirm:
      // Fresh N-bit session codes are secret; the computationally bounded
      // jammer cannot guess them (paper §IV-B).
      is_jammed = jammer_.jams(code.id, adversary::MessageClass::SessionSpread, rng_);
      break;
  }

  if (is_jammed) {
    ++jammed_;
    JRSND_COUNT("phy.tx.jammed");
    obs::set_loss_reason(obs::LossStage::Jammed);
    return false;
  }
  ++delivered_;
  JRSND_COUNT("phy.tx.delivered");
  out = payload;
  return true;
}

}  // namespace jrsnd::core
