// Per-node protocol state: identity, key material, spread codes, revocation
// counters, and the logical-neighbor table with established session codes.
//
// One NodeState instance backs both protocol engines; the Monte-Carlo driver
// creates n of them per run, and examples/tests create a handful.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
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

  [[nodiscard]] const std::vector<CodeId>& all_codes() const noexcept { return codes_; }

  /// Chip pattern of a held pool code.
  [[nodiscard]] const dsss::SpreadCode& code_pattern(CodeId code) const;

  [[nodiscard]] predist::RevocationState& revocation() noexcept { return revocation_; }
  [[nodiscard]] const predist::RevocationState& revocation() const noexcept {
    return revocation_;
  }

  /// Fresh l_n-bit random nonce.
  [[nodiscard]] BitVector make_nonce(std::uint32_t bits);

  /// Per-node deterministic randomness stream.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  // --- logical-neighbor table ------------------------------------------

  /// Adds `peer` or replaces what is held for it (the list gains no duplicate).
  void add_logical_neighbor(NodeId peer, LogicalNeighbor info);
  [[nodiscard]] bool knows(NodeId peer) const { return neighbors_.contains(peer); }
  [[nodiscard]] const LogicalNeighbor* neighbor(NodeId peer) const;

  /// Logical neighbor ids, ascending (the paper's L_A): the table's keys,
  /// kept sorted beside it. The list is built on the first read after the
  /// table changed (runs that never read it, such as the graph-level
  /// figures, never allocate it). The reference is invalidated by any add
  /// or remove on this node — to drop neighbors while walking the list,
  /// use remove_logical_neighbors_if.
  [[nodiscard]] const std::vector<NodeId>& logical_neighbors() const;

  /// Drops a logical neighbor (used when a node moves out of range); an
  /// unknown peer is a no-op.
  void remove_logical_neighbor(NodeId peer);

  /// Drops every logical neighbor `pred(peer)` selects and returns how many
  /// went. `pred` sees each neighbor once, in ascending order, and must not
  /// add or remove neighbors of this node (other nodes' tables are fine).
  template <class Pred>
  std::size_t remove_logical_neighbors_if(Pred pred) {
    (void)logical_neighbors();  // build it if stale; the walk keeps it current
    std::size_t kept = 0;
    for (std::size_t i = 0; i < logical_.size(); ++i) {
      const NodeId peer = logical_[i];
      if (pred(peer)) {
        neighbors_.erase(peer);
      } else {
        logical_[kept++] = peer;
      }
    }
    const std::size_t removed = logical_.size() - kept;
    logical_.resize(kept);
    return removed;
  }

 private:
  NodeId id_;
  crypto::IbcPrivateKey key_;
  std::vector<CodeId> codes_;
  const predist::CodePoolAuthority* authority_;
  predist::RevocationState revocation_;
  Rng rng_;
  std::unordered_map<NodeId, LogicalNeighbor> neighbors_;
  mutable std::vector<NodeId> logical_;  ///< neighbors_'s keys, ascending
  mutable bool logical_stale_ = false;   ///< neighbors_ changed since built
};

/// Nodes 0..n-1, each with its IBC private key, its pre-distributed codes
/// and one `rng.split()`, drawn in id order.
[[nodiscard]] std::vector<NodeState> issue_nodes(const predist::CodePoolAuthority& authority,
                                                 const crypto::IbcAuthority& ibc,
                                                 std::uint32_t n, std::uint32_t gamma, Rng& rng);

}  // namespace jrsnd::core
