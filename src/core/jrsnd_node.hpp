// Per-node protocol state: identity, key material, spread codes, revocation
// counters, and the logical-neighbor table with established session codes.
//
// One NodeState instance backs both protocol engines; the Monte-Carlo driver
// creates n of them per run, and examples/tests create a handful.
//
// The neighbor table is two aligned vectors: the ascending peer ids (the
// paper's L_A) and what is held for each. Any add or remove on a node
// invalidates its neighbor() pointers and its logical_neighbors() reference.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bit_vector.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/ibc.hpp"
#include "dsss/spread_code.hpp"
#include "predist/authority.hpp"
#include "predist/revocation.hpp"

namespace jrsnd::core {

/// State kept for each discovered (logical) neighbor.
struct LogicalNeighbor {
  crypto::SymmetricKey pair_key{};  ///< K_AB
  BitVector session_code;           ///< C_AB = h_K(n_A ^ n_B), N bits
  bool via_mndp = false;            ///< discovered indirectly
};

class NodeState {
 public:
  /// `gamma` is the DoS revocation threshold. The node keeps a reference to
  /// the authority only to resolve pool-code chip patterns (the real system
  /// ships the patterns on the device; the reference avoids copying the
  /// pool per node).
  NodeState(NodeId id, crypto::IbcPrivateKey key, std::vector<CodeId> codes,
            const predist::CodePoolAuthority& authority, std::uint32_t gamma, Rng rng);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const crypto::IbcPrivateKey& key() const noexcept { return key_; }

  /// Pool codes not locally revoked, ascending.
  [[nodiscard]] const std::vector<CodeId>& usable_codes() const noexcept {
    return revocation_.usable_codes();
  }

  /// Every held pool code, revoked or not, ascending.
  [[nodiscard]] const std::vector<CodeId>& all_codes() const noexcept {
    return revocation_.held_codes();
  }

  /// Chip pattern of a held pool code. Every caller passes a code from this
  /// node's own usable list, so holding it is asserted, not re-checked.
  [[nodiscard]] const dsss::SpreadCode& code_pattern(CodeId code) const;

  [[nodiscard]] predist::RevocationState& revocation() noexcept { return revocation_; }
  [[nodiscard]] const predist::RevocationState& revocation() const noexcept {
    return revocation_;
  }

  /// Fresh l_n-bit random nonce.
  [[nodiscard]] BitVector make_nonce(std::uint32_t bits);
  /// make_nonce() into `out`, reusing its storage: the same bits and draws.
  void make_nonce_into(std::uint32_t bits, BitVector& out);

  /// Per-node deterministic randomness stream.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  // --- logical-neighbor table ------------------------------------------

  /// Adds `peer` or replaces what is held for it (the list gains no duplicate).
  void add_logical_neighbor(NodeId peer, LogicalNeighbor info);
  [[nodiscard]] bool knows(NodeId peer) const { return neighbor(peer) != nullptr; }
  /// What is held for `peer`, or null. Invalidated by any add or remove on
  /// this node.
  [[nodiscard]] const LogicalNeighbor* neighbor(NodeId peer) const;

  /// Logical neighbor ids, ascending (the paper's L_A). The reference is
  /// invalidated by any add or remove on this node — to drop neighbors while
  /// walking the list, use remove_logical_neighbors_if.
  [[nodiscard]] const std::vector<NodeId>& logical_neighbors() const noexcept { return logical_; }

  /// Drops a logical neighbor (used when a node moves out of range); an
  /// unknown peer is a no-op.
  void remove_logical_neighbor(NodeId peer);

  /// Drops every logical neighbor `pred(peer)` selects and returns how many
  /// went. `pred` sees each neighbor once, in ascending order, and must not
  /// add or remove neighbors of this node (other nodes' tables are fine).
  template <class Pred>
  std::size_t remove_logical_neighbors_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < logical_.size(); ++i) {
      if (pred(logical_[i])) continue;
      logical_[kept] = logical_[i];
      if (kept != i) links_[kept] = std::move(links_[i]);
      ++kept;
    }
    const std::size_t removed = logical_.size() - kept;
    logical_.resize(kept);
    links_.resize(kept);
    return removed;
  }

 private:
  NodeId id_;
  crypto::IbcPrivateKey key_;
  const predist::CodePoolAuthority* authority_;
  predist::RevocationState revocation_;
  Rng rng_;
  std::vector<NodeId> logical_;         ///< known peers, ascending
  std::vector<LogicalNeighbor> links_;  ///< links_[i]: what is held for logical_[i]
};

/// Nodes 0..n-1, each with its IBC private key, its pre-distributed codes
/// and one `rng.split()`, drawn in id order.
[[nodiscard]] std::vector<NodeState> issue_nodes(const predist::CodePoolAuthority& authority,
                                                 const crypto::IbcAuthority& ibc,
                                                 std::uint32_t n, std::uint32_t gamma, Rng& rng);

}  // namespace jrsnd::core
