#include "core/chip_phy.hpp"

#include <algorithm>

#include "dsss/spreader.hpp"
#include "obs/prof/perf_counters.hpp"
#include "obs/span.hpp"

namespace jrsnd::core {

ChipPhy::ChipPhy(const Params& params, const sim::Topology& topology,
                 const adversary::Jammer& jammer, Codebook receiver_codebook, Rng& rng)
    : params_(params),
      topology_(topology),
      jammer_(jammer),
      codebook_(std::move(receiver_codebook)),
      rng_(rng),
      codec_(params.mu) {}

void ChipPhy::begin_subsession(NodeId /*a*/, NodeId /*b*/, CodeId code) {
  hello_jammed_ = jammer_.jams(code, adversary::MessageClass::Hello, rng_);
  followups_jammed_ = jammer_.jams(code, adversary::MessageClass::Followup, rng_);
}

bool ChipPhy::transmit_into(NodeId from, NodeId to, TxCode code, TxClass cls,
                            const BitVector& payload, BitVector& out) {
  obs::Span span("phy.transmit");
  JRSND_PERF_REGION("phy.transmit");
  const bool delivered = transmit_pipeline(from, to, code, cls, payload, out);
  span.set_ok(delivered);
  if (!delivered) span.set_loss(obs::peek_loss_reason());
  return delivered;
}

bool ChipPhy::transmit_pipeline(NodeId from, NodeId to, TxCode code, TxClass cls,
                                const BitVector& payload, BitVector& out) {
  if (code.pattern == nullptr) {  // ChipPhy requires chips
    obs::set_loss_reason(obs::LossStage::DecodeFail);
    return false;
  }
  if (!topology_.are_neighbors(from, to)) {
    obs::set_loss_reason(obs::LossStage::OutOfRange);
    return false;
  }
  ++messages_;

  // --- sender: ECC expansion + spreading ---------------------------------
  codec_.encode_into(payload, scratch_.ecc, scratch_.coded);
  const BitVector& coded = scratch_.coded;
  dsss::spread_into(coded, *code.pattern, scratch_.flipped, scratch_.chips);
  const BitVector& chips = scratch_.chips;
  const std::size_t n = code.pattern->length();

  // Place the message at a random offset inside the receiver's buffer
  // window (models the unsynchronized arrival the sliding window handles).
  // Capacity is reserved at the maximum-pad duration so the random pad
  // cannot force a late regrowth of the reused window.
  const std::size_t pad_before = static_cast<std::size_t>(rng_.uniform(2 * n));
  const std::size_t pad_after = n;
  const std::size_t max_duration = (2 * n - 1) + chips.size() + pad_after;
  scratch_.channel.reserve(max_duration, 1 + kJamSignals);
  scratch_.channel.reset(pad_before + chips.size() + pad_after);
  scratch_.channel.add(pad_before, chips);

  // --- jammer --------------------------------------------------------------
  bool strike = false;
  switch (cls) {
    case TxClass::Hello:
      strike = hello_jammed_;
      break;
    case TxClass::Confirm:
    case TxClass::Auth:
      if (followups_jammed_) {
        strike = true;
        followups_jammed_ = false;  // group budget spent (see AbstractPhy)
      }
      break;
    case TxClass::SessionUnicast:
    case TxClass::SessionHello:
    case TxClass::SessionConfirm:
      strike = jammer_.jams(code.id, adversary::MessageClass::SessionSpread, rng_);
      break;
  }
  if (strike) {
    ++jams_;
    // Parallel signals on the compromised code: the jammer's chips dominate
    // the victim's and covered bits despread to attacker values. The pattern
    // is spread once into the arena and superposed once per signal.
    if (adversary::make_chip_jam_into(*code.pattern, pad_before, coded.size(), jam_coverage_,
                                      rng_, jam_start_, scratch_.jam)) {
      for (std::uint32_t s = 0; s < kJamSignals; ++s) {
        scratch_.channel.add(scratch_.jam.start_chip, scratch_.jam.chips);
      }
    }
  }

  // --- receiver -------------------------------------------------------------
  scratch_.received.reserve(max_duration);
  scratch_.channel.receive_into(rng_, scratch_.received);
  const BitVector& received = scratch_.received;

  // HELLOs arrive unannounced: scan with the whole codebook (prepared once
  // by the receiver, ShiftTables cached across transmissions). Every other
  // message is on a code the receiver is actively monitoring — a one-code
  // candidate set refreshed only when the code changes.
  const dsss::PreparedCodebook* candidates = nullptr;
  if (cls == TxClass::Hello) {
    candidates = &codebook_(to);
  } else {
    monitored_.assign_if_changed(std::span<const dsss::SpreadCode>(code.pattern, 1));
    candidates = &monitored_;
  }
  if (candidates->empty()) {
    obs::set_loss_reason(obs::LossStage::DecodeFail);
    return false;
  }

  // A sync position can be a false lock (noise or jammer energy exceeding
  // tau); the ECC decode is the arbiter, and on rejection the receiver
  // resumes scanning one chip later — the standard recover-and-rescan loop.
  // The cached tables make each rescan iteration pure scanning work.
  obs::Span scan_span("dsss.scan");
  JRSND_PERF_REGION("dsss.scan");
  std::uint64_t rescans = 0;
  std::size_t offset = 0;
  while (true) {
    if (!dsss::find_first_message_into(received, *candidates, coded.size(), params_.tau, offset,
                                       scratch_.hit)) {
      // A strike explains the miss; otherwise the channel noise defeated
      // sync/decode on its own.
      obs::set_loss_reason(strike ? obs::LossStage::Jammed : obs::LossStage::DecodeFail);
      scan_span.set_ok(false);
      scan_span.set_loss(strike ? obs::LossStage::Jammed : obs::LossStage::DecodeFail);
      scan_span.with_u64("rescans", rescans);
      return false;
    }
    bool decoded = false;
    {
      obs::Span decode_span("ecc.decode");
      JRSND_PERF_REGION("ecc.rs.decode");
      decoded = codec_.decode_into(scratch_.hit.message.bits, payload.size(),
                                   std::span<const std::size_t>(scratch_.hit.message.erased_bits),
                                   scratch_.ecc, out);
      decode_span.set_ok(decoded);
      if (!decoded) decode_span.set_loss(obs::LossStage::DecodeFail);
    }
    if (decoded) {
      scan_span.with_u64("rescans", rescans);
      return true;
    }
    ++rescans;
    offset = scratch_.hit.chip_offset + 1;
  }
}

ChipPhy::Codebook usable_codebook(const std::vector<NodeState>& nodes,
                                  dsss::NodeCodebookCache& cache) {
  return [&nodes, &cache](NodeId id) -> const dsss::PreparedCodebook& {
    const NodeState& node = nodes[raw(id)];
    std::vector<dsss::SpreadCode> codes;
    for (const CodeId c : node.usable_codes()) codes.push_back(node.code_pattern(c));
    return cache.prepare(id, codes);
  };
}

}  // namespace jrsnd::core
