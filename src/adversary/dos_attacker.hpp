// The verification-flooding DoS attack and JR-SND's bound on it (§V-D).
//
// Schemes built on *public* code sets let J inject unlimited fake
// neighbor-discovery requests that every receiver must (expensively) verify.
// Under JR-SND, J can only inject with codes it compromised, and each holder
// locally revokes a code after gamma invalid requests — so a compromised
// code wastes at most (l-1) * gamma verifications network-wide.
//
// DosCampaign drives the attack against a set of victims with per-code
// RevocationState, counting the signature verifications each victim performs
// until every attack code is revoked everywhere (or the attacker's request
// budget runs out).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bit_vector.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/handshake.hpp"
#include "core/messages.hpp"
#include "crypto/ibc.hpp"
#include "crypto/verify_queue.hpp"
#include "predist/code_assignment.hpp"
#include "predist/revocation.hpp"

namespace jrsnd::adversary {

struct DosCampaignResult {
  std::uint64_t requests_sent = 0;       ///< fake requests J transmitted
  std::uint64_t verifications = 0;       ///< signature checks victims performed
  std::uint64_t revocations = 0;         ///< (node, code) revocation events
  std::uint64_t requests_ignored = 0;    ///< requests that hit revoked codes
  double verification_time_s = 0.0;      ///< verifications * t_ver
};

class DosCampaign {
 public:
  /// Victims are every non-compromised holder of each attack code. The
  /// attack codes are distinct (as CompromiseModel::compromised_codes()
  /// gives them). `gamma` is the revocation threshold, `t_ver_s` the
  /// per-verification cost.
  DosCampaign(const predist::CodeAssignment& assignment,
              const std::vector<CodeId>& attack_codes,
              const std::vector<NodeId>& compromised_nodes, std::uint32_t gamma,
              double t_ver_s);

  /// Injects `requests_per_code` fake requests on each attack code,
  /// round-robin across its victim holders. Idempotent revocation: once a
  /// victim revokes a code, further requests on it cost nothing there.
  [[nodiscard]] DosCampaignResult run(std::uint64_t requests_per_code);

  /// The paper's worst-case bound per code: (holders - 1) * gamma
  /// verifications beyond which no non-compromised node listens.
  /// (Each victim performs at most gamma+1 checks: the one crossing the
  /// threshold triggers revocation.)
  [[nodiscard]] std::uint64_t per_code_verification_bound(CodeId code) const;

  [[nodiscard]] std::uint64_t total_verification_bound() const;

 private:
  std::vector<CodeId> attack_codes_;
  std::vector<NodeId> victims_;                   ///< ascending
  std::vector<predist::RevocationState> states_;  ///< states_[i]: victims_[i]'s
  /// victims_per_code_[k]: indices into victims_ of attack_codes_[k]'s victims.
  std::vector<std::vector<std::size_t>> victims_per_code_;
  std::uint32_t gamma_;
  double t_ver_s_;
};

// --- Handshake flooding against the batched verification pipeline ----------
//
// DosCampaign above counts *model-level* verifications against the paper's
// revocation bound. HandshakeFloodSource is the frame-level counterpart: it
// authors the actual AUTH wire frames — honest ones plus the attacker shapes
// a flooder would send — so bench/dos_throughput and bench/dos_resilience can
// measure what one receiver's crypto::VerifyQueue actually sustains.

/// Shapes of frame a handshake flood interleaves. Each maps to exactly one
/// pipeline stage, so tests can assert every reject fires at its cheapest
/// possible check.
enum class FloodFrameKind : std::uint8_t {
  Honest,     ///< well-formed, valid MAC -> Accept
  BadMac,     ///< well-formed, garbage MAC -> RejectMac (the expensive reject)
  Truncated,  ///< short frame -> RejectLength
  BadType,    ///< right length, non-AUTH type tag -> RejectFormat
  WrongCode,  ///< valid frame on a code the receiver is not listening on -> RejectCode
};

[[nodiscard]] const char* flood_frame_kind_name(FloodFrameKind kind) noexcept;

struct FloodFrame {
  BitVector bits;
  std::uint32_t frame_code = 0;
  FloodFrameKind kind = FloodFrameKind::Honest;
  crypto::VerifyStage expected_stage = crypto::VerifyStage::Accept;
};

/// Authors AUTH frames for a flood of configurable attacker:honest ratio.
/// The receiver is node 0; honest senders are nodes 1..peer_count, all
/// provisioned under one IbcAuthority so their MACs genuinely verify.
/// Deterministic: same seeds -> bit-identical batches.
class HandshakeFloodSource {
 public:
  HandshakeFloodSource(const core::WireConfig& wire, std::uint64_t authority_seed,
                       std::uint32_t peer_count, std::uint64_t rng_seed);

  /// `count` frames with `ratio` attacker frames per honest frame (ratio 0 =
  /// all honest). Attacker kinds cycle BadMac-weighted — a competent flooder
  /// sends well-formed frames with garbage MACs, since those are what force
  /// the victim into MAC computation.
  [[nodiscard]] std::vector<FloodFrame> make_batch(std::size_t count,
                                                   std::uint32_t ratio);

  /// Key source over the receiver's IBC key, for feeding a VerifyQueue
  /// directly (the same core::IbcPairKeySource the engine verifies under).
  [[nodiscard]] const crypto::KeySource& key_source() const noexcept {
    return source_;
  }
  [[nodiscard]] const crypto::IbcPrivateKey& receiver() const noexcept {
    return receiver_;
  }
  [[nodiscard]] const crypto::VerifyWire& verify_wire() const noexcept {
    return verify_wire_;
  }
  /// The session code the receiver listens on / the wrong one attackers use.
  [[nodiscard]] std::uint32_t expected_code() const noexcept { return 7; }
  [[nodiscard]] std::uint32_t wrong_code() const noexcept { return 8; }

 private:
  [[nodiscard]] FloodFrame make_frame(FloodFrameKind kind);

  core::WireConfig wire_;
  crypto::VerifyWire verify_wire_;
  crypto::IbcPrivateKey receiver_;
  std::vector<crypto::IbcPrivateKey> peers_;
  core::IbcPairKeySource source_;
  Rng rng_;
};

}  // namespace jrsnd::adversary
