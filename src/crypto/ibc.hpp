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

/// Stand-in for the IBC public system parameters and the bilinear map.
/// Constructed only by IbcAuthority; shared read-only by all parties.
class PairingOracle {
 public:
  /// Verifies that `sig` is signer_id's signature over `message`.
  [[nodiscard]] bool verify(NodeId signer_id, std::span<const std::uint8_t> message,
                            const IbcSignature& sig) const noexcept;

 private:
  friend class IbcAuthority;
  friend class IbcPrivateKey;

  explicit PairingOracle(const SymmetricKey& master) noexcept : master_(master) {}

  [[nodiscard]] SymmetricKey pair_key(NodeId a, NodeId b) const noexcept;
  [[nodiscard]] SymmetricKey sign_key(NodeId id) const noexcept;

  /// The master secret's HMAC schedule, built once: every pair_key and
  /// sign_key is then two compressions instead of four (same bytes).
  HmacKey master_;
};

/// A node's ID-based private key K_A^{-1}. Only the authority mints these.
class IbcPrivateKey {
 public:
  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Non-interactive shared-key agreement: K_AB from (this key, peer ID).
  /// Symmetric: A.shared_key(B) == B.shared_key(A).
  [[nodiscard]] SymmetricKey shared_key(NodeId peer) const noexcept;

  /// ID-based signature over `message`, verifiable via PairingOracle::verify.
  [[nodiscard]] IbcSignature sign(std::span<const std::uint8_t> message) const noexcept;

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
