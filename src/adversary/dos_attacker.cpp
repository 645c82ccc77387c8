#include "adversary/dos_attacker.hpp"

#include <cassert>
#include <unordered_set>

namespace jrsnd::adversary {

DosCampaign::DosCampaign(const predist::CodeAssignment& assignment,
                         const std::vector<CodeId>& attack_codes,
                         const std::vector<NodeId>& compromised_nodes, std::uint32_t gamma,
                         double t_ver_s)
    : assignment_(assignment), attack_codes_(attack_codes), gamma_(gamma), t_ver_s_(t_ver_s) {
  const std::unordered_set<NodeId> compromised(compromised_nodes.begin(),
                                               compromised_nodes.end());
  for (const CodeId code : attack_codes_) {
    for (const NodeId holder : assignment_.holders_of(code)) {
      if (compromised.contains(holder)) continue;  // J need not attack itself
      victims_per_code_[code].push_back(holder);
      if (!victims_.contains(holder)) {
        victims_.emplace(holder,
                         predist::RevocationState(gamma_, assignment_.codes_of(holder)));
      }
    }
  }
}

DosCampaignResult DosCampaign::run(std::uint64_t requests_per_code) {
  DosCampaignResult result;
  for (const CodeId code : attack_codes_) {
    const auto it = victims_per_code_.find(code);
    if (it == victims_per_code_.end() || it->second.empty()) continue;
    const std::vector<NodeId>& holders = it->second;
    for (std::uint64_t r = 0; r < requests_per_code; ++r) {
      ++result.requests_sent;
      // One broadcast request reaches every in-range holder; we charge the
      // worst case where all holders of the code hear it.
      for (const NodeId victim : holders) {
        predist::RevocationState& state = victims_.at(victim);
        if (state.is_revoked(code)) {
          ++result.requests_ignored;
          continue;  // victim no longer de-spreads this code: zero cost
        }
        ++result.verifications;  // the (failing) signature verification
        if (state.report_invalid(code)) ++result.revocations;
      }
    }
  }
  result.verification_time_s = static_cast<double>(result.verifications) * t_ver_s_;
  return result;
}

std::uint64_t DosCampaign::per_code_verification_bound(CodeId code) const {
  const auto it = victims_per_code_.find(code);
  if (it == victims_per_code_.end()) return 0;
  return static_cast<std::uint64_t>(it->second.size()) * (gamma_ + 1);
}

std::uint64_t DosCampaign::total_verification_bound() const {
  std::uint64_t total = 0;
  for (const CodeId code : attack_codes_) total += per_code_verification_bound(code);
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
