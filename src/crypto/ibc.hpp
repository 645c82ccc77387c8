// Identity-based cryptography substrate (simulated pairing).
//
// The paper adopts the certificateless/IBC scheme of Zhang et al. [13]
// (pairing-based, in the Boneh-Franklin setting): every node A holds an
// ID-based private key K_A^{-1} issued by the MANET authority, any two nodes
// can non-interactively derive the same shared key K_AB = K_BA from (own
// private key, peer ID), and nodes sign messages verifiable with just the
// signer's ID.
//
// No pairing library is available offline, so we substitute the bilinear map
// with a *pairing oracle* keyed by the authority's master secret:
//
//   pair(A, B)            = HMAC(master, "pair" || min(A,B) || max(A,B))
//   sign_key(A)           = HMAC(master, "sig"  || A)
//   SIG_{K_A^{-1}}(msg)   = HMAC(sign_key(A), msg)
//
// sign_key(A) is only ever held as its HMAC schedule (signer_key): deriving
// it and its ipad/opad midstates (4 compressions) happens once per signer,
// and each sign or verify then costs the message blocks plus one outer
// compression.
//
// The three properties JR-SND relies on are preserved: (1) A and B derive
// identical keys; (2) no third party's private key yields K_AB; (3) a
// signature binds (ID, message) and verifies against the ID alone. The
// oracle object is trusted simulation machinery standing in for the public
// system parameters + bilinear map; the simulated adversary never queries it
// for non-compromised identities (enforced by the adversary model, see
// src/adversary). Computation costs (t_key, t_sig, t_ver of Table I) are
// charged as simulated time by the protocol engines, not here.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prf.hpp"
#include "crypto/sha256.hpp"

namespace jrsnd::crypto {

/// An ID-based signature. The cryptographic content is a 256-bit tag; the
/// paper's wire length l_sig = 672 bits (a BLS-style element) is accounted
/// for by the message codecs, not here.
struct IbcSignature {
  Sha256Digest tag{};

  bool operator==(const IbcSignature&) const = default;
};

/// One signer's signature schedule: sign_key(id) held as its HMAC midstates,
/// tagged with the id it was derived for. Four compressions to build
/// (sign_key(id), then its ipad/opad midstates); every sign or verify under
/// it then costs the signed bytes' compressions plus one. Callers that check or make many signatures build one per signer and
/// reuse it (never eagerly: most runs sign nothing).
struct SignerKey {
  NodeId id = kInvalidNode;
  HmacKey schedule;
};

/// Stand-in for the IBC public system parameters and the bilinear map.
/// Constructed only by IbcAuthority; shared read-only by all parties.
///
/// A signature covers a bit string: the first `bits` bits of `message`,
/// MSB-first, with the final partial byte zero-padded — exactly the bytes
/// BitVector::to_bytes gives for that prefix. M-NDP signs nested bit
/// prefixes of one encoded body, so a prefix is passed by reference instead
/// of re-encoded (see core::SignedBody).
class PairingOracle {
 public:
  /// signer_id's signature schedule.
  [[nodiscard]] SignerKey signer_key(NodeId signer_id) const noexcept;

  /// Verifies that `sig` is signer.id's signature over the first `bits` bits
  /// of `message`, where `signer` came from signer_key.
  /// Precondition: bits <= 8 * message.size().
  [[nodiscard]] static bool verify(const SignerKey& signer, std::span<const std::uint8_t> message,
                                   std::size_t bits, const IbcSignature& sig) noexcept;

  /// Verifies that `sig` is signer_id's signature over all of `message`
  /// (builds the schedule for this one call).
  [[nodiscard]] bool verify(NodeId signer_id, std::span<const std::uint8_t> message,
                            const IbcSignature& sig) const noexcept {
    return verify(signer_key(signer_id), message, message.size() * 8, sig);
  }

 private:
  friend class IbcAuthority;
  friend class IbcPrivateKey;

  explicit PairingOracle(const SymmetricKey& master) noexcept : master_(master) {}

  [[nodiscard]] SymmetricKey pair_key(NodeId a, NodeId b) const noexcept;

  /// The master secret's HMAC schedule, built once: every pair_key and
  /// signer_key is then two compressions instead of four (same bytes).
  HmacKey master_;
};

/// A node's ID-based private key K_A^{-1}. Only the authority mints these.
class IbcPrivateKey {
 public:
  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Non-interactive shared-key agreement: K_AB from (this key, peer ID).
  /// Symmetric: A.shared_key(B) == B.shared_key(A).
  [[nodiscard]] SymmetricKey shared_key(NodeId peer) const noexcept;

  /// This key's signature schedule, the one verifiers of id() use.
  [[nodiscard]] SignerKey signing_key() const noexcept { return oracle_->signer_key(id_); }

  /// ID-based signature over the first `bits` bits of `message`, verifiable
  /// via PairingOracle::verify. `own` is the signer_key of id() — the id
  /// this key was issued to, never one its holder claims — built once by a
  /// caller that signs repeatedly; a schedule tagged with any other id is
  /// not used (it would forge that id's signatures).
  /// Precondition: bits <= 8 * message.size().
  [[nodiscard]] IbcSignature sign(const SignerKey& own, std::span<const std::uint8_t> message,
                                  std::size_t bits) const noexcept;

  /// ID-based signature over all of `message` (builds the schedule per call).
  [[nodiscard]] IbcSignature sign(std::span<const std::uint8_t> message) const noexcept {
    return sign(signing_key(), message, message.size() * 8);
  }

 private:
  friend class IbcAuthority;
  IbcPrivateKey(NodeId id, std::shared_ptr<const PairingOracle> oracle) noexcept
      : id_(id), oracle_(std::move(oracle)) {}

  NodeId id_;
  std::shared_ptr<const PairingOracle> oracle_;
};

/// The MANET authority's key-generation center (KGC).
class IbcAuthority {
 public:
  /// Deterministic setup from a seed (so experiments are reproducible).
  explicit IbcAuthority(std::uint64_t master_seed) noexcept;

  /// Issues node `id`'s private key (done before network deployment).
  [[nodiscard]] IbcPrivateKey issue(NodeId id) const;

  /// The public system parameters handle, needed by verifiers.
  [[nodiscard]] std::shared_ptr<const PairingOracle> oracle() const noexcept { return oracle_; }

 private:
  std::shared_ptr<const PairingOracle> oracle_;
};

/// Message authentication code f_K(.) used in the D-NDP handshake:
/// HMAC-SHA-256 under the pairwise IBC key.
[[nodiscard]] Sha256Digest compute_mac(const SymmetricKey& key,
                                       std::span<const std::uint8_t> message) noexcept;

}  // namespace jrsnd::crypto
