#include "adversary/dos_attacker.hpp"

#include <algorithm>
#include <cassert>

namespace jrsnd::adversary {

DosCampaign::DosCampaign(const predist::CodeAssignment& assignment,
                         const std::vector<CodeId>& attack_codes,
                         const std::vector<NodeId>& compromised_nodes, std::uint32_t gamma,
                         double t_ver_s)
    : attack_codes_(attack_codes), gamma_(gamma), t_ver_s_(t_ver_s) {
  for (const CodeId code : attack_codes_) {
    for (const NodeId holder : assignment.holders_of(code)) {
      if (std::find(compromised_nodes.begin(), compromised_nodes.end(), holder) ==
          compromised_nodes.end()) {
        victims_.push_back(holder);  // J need not attack itself
      }
    }
  }
  std::sort(victims_.begin(), victims_.end());
  victims_.erase(std::unique(victims_.begin(), victims_.end()), victims_.end());
  states_.reserve(victims_.size());
  for (const NodeId victim : victims_) states_.emplace_back(gamma_, assignment.codes_of(victim));
  for (const CodeId code : attack_codes_) {
    std::vector<std::size_t>& indices = victims_per_code_.emplace_back();
    for (const NodeId holder : assignment.holders_of(code)) {
      const auto it = std::lower_bound(victims_.begin(), victims_.end(), holder);
      if (it != victims_.end() && *it == holder) {
        indices.push_back(static_cast<std::size_t>(it - victims_.begin()));
      }
    }
  }
}

DosCampaignResult DosCampaign::run(std::uint64_t requests_per_code) {
  DosCampaignResult result;
  for (std::size_t k = 0; k < attack_codes_.size(); ++k) {
    const CodeId code = attack_codes_[k];
    const std::vector<std::size_t>& holders = victims_per_code_[k];
    for (std::uint64_t r = 0; r < requests_per_code && !holders.empty(); ++r) {
      ++result.requests_sent;
      // One broadcast request reaches every in-range holder; we charge the
      // worst case where all holders of the code hear it.
      std::size_t listening = 0;
      for (const std::size_t victim : holders) {
        predist::RevocationState& state = states_[victim];
        if (state.is_revoked(code)) {
          ++result.requests_ignored;
          continue;  // victim no longer de-spreads this code: zero cost
        }
        ++result.verifications;  // the (failing) signature verification
        const bool revoked = state.report_invalid(code);
        result.revocations += revoked;
        listening += !revoked;
      }
      if (listening == 0) {  // every holder revoked `code`: the rest cost nothing
        const std::uint64_t rest = requests_per_code - r - 1;
        result.requests_sent += rest;
        result.requests_ignored += rest * holders.size();
        break;
      }
    }
  }
  result.verification_time_s = static_cast<double>(result.verifications) * t_ver_s_;
  return result;
}

std::uint64_t DosCampaign::per_code_verification_bound(CodeId code) const {
  const auto it = std::find(attack_codes_.begin(), attack_codes_.end(), code);
  if (it == attack_codes_.end()) return 0;
  const std::size_t k = static_cast<std::size_t>(it - attack_codes_.begin());
  return static_cast<std::uint64_t>(victims_per_code_[k].size()) * (gamma_ + 1);
}

std::uint64_t DosCampaign::total_verification_bound() const {
  std::uint64_t total = 0;
  for (const auto& holders : victims_per_code_) {
    total += static_cast<std::uint64_t>(holders.size()) * (gamma_ + 1);
  }
  return total;
}

// --- HandshakeFloodSource ---------------------------------------------------

const char* flood_frame_kind_name(FloodFrameKind kind) noexcept {
  switch (kind) {
    case FloodFrameKind::Honest: return "honest";
    case FloodFrameKind::BadMac: return "bad_mac";
    case FloodFrameKind::Truncated: return "truncated";
    case FloodFrameKind::BadType: return "bad_type";
    case FloodFrameKind::WrongCode: return "wrong_code";
  }
  return "?";
}

HandshakeFloodSource::HandshakeFloodSource(const core::WireConfig& wire,
                                           std::uint64_t authority_seed,
                                           std::uint32_t peer_count,
                                           std::uint64_t rng_seed)
    : wire_(wire),
      verify_wire_(core::verify_wire_from(wire)),
      receiver_(crypto::IbcAuthority(authority_seed).issue(node_id(0))),
      rng_(rng_seed) {
  assert(peer_count > 0);
  const crypto::IbcAuthority authority(authority_seed);
  peers_.reserve(peer_count);
  for (std::uint32_t i = 1; i <= peer_count; ++i) {
    peers_.push_back(authority.issue(node_id(i)));
  }
  source_.receiver = &receiver_;
}

FloodFrame HandshakeFloodSource::make_frame(FloodFrameKind kind) {
  // Every shape starts from a genuinely valid AUTH frame: a real peer, a
  // fresh nonce, and a MAC under the true pairwise key — then breaks exactly
  // one property.
  const std::size_t peer = rng_.uniform(peers_.size());
  const crypto::IbcPrivateKey& sender = peers_[peer];
  BitVector nonce;
  nonce.append_uint(rng_.next(), wire_.l_n);
  const crypto::SymmetricKey key = sender.shared_key(receiver_.id());
  const core::AuthMessage msg = core::AuthMessage::make(sender.id(), nonce, key, wire_);

  FloodFrame frame;
  frame.kind = kind;
  frame.bits = msg.encode(wire_);
  frame.frame_code = expected_code();
  switch (kind) {
    case FloodFrameKind::Honest:
      frame.expected_stage = crypto::VerifyStage::Accept;
      break;
    case FloodFrameKind::BadMac: {
      // Flip one MAC bit: the frame still parses, still matches the code,
      // and forces the receiver all the way into MAC recomputation.
      const std::size_t mac_off =
          std::size_t{wire_.l_t} + wire_.l_id + wire_.l_n;
      frame.bits.flip(mac_off + rng_.uniform(wire_.l_mac));
      frame.expected_stage = crypto::VerifyStage::RejectMac;
      break;
    }
    case FloodFrameKind::Truncated:
      frame.bits.truncate(rng_.uniform(frame.bits.size()));
      frame.expected_stage = crypto::VerifyStage::RejectLength;
      break;
    case FloodFrameKind::BadType:
      // Auth = 0b00011, Hello = 0b00001: one flip turns the tag into a
      // different valid-looking type at the correct length.
      frame.bits.flip(wire_.l_t - 2);
      frame.expected_stage = crypto::VerifyStage::RejectFormat;
      break;
    case FloodFrameKind::WrongCode:
      frame.frame_code = wrong_code();
      frame.expected_stage = crypto::VerifyStage::RejectCode;
      break;
  }
  return frame;
}

std::vector<FloodFrame> HandshakeFloodSource::make_batch(std::size_t count,
                                                         std::uint32_t ratio) {
  // BadMac-weighted cycle: a competent flooder sends mostly well-formed
  // frames with garbage MACs, since those are what cost the victim crypto.
  static constexpr FloodFrameKind kAttackCycle[] = {
      FloodFrameKind::BadMac,    FloodFrameKind::Truncated,
      FloodFrameKind::BadMac,    FloodFrameKind::BadType,
      FloodFrameKind::BadMac,    FloodFrameKind::WrongCode,
  };
  std::vector<FloodFrame> batch;
  batch.reserve(count);
  std::size_t attackers = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % (std::size_t{ratio} + 1) == 0) {
      batch.push_back(make_frame(FloodFrameKind::Honest));
    } else {
      batch.push_back(make_frame(kAttackCycle[attackers++ % std::size(kAttackCycle)]));
    }
  }
  return batch;
}

}  // namespace jrsnd::adversary
