#include "core/jrsnd_node.hpp"

#include <algorithm>
#include <stdexcept>

namespace jrsnd::core {

NodeState::NodeState(NodeId id, crypto::IbcPrivateKey key, std::vector<CodeId> codes,
                     const predist::CodePoolAuthority& authority, std::uint32_t gamma, Rng rng)
    : id_(id),
      key_(std::move(key)),
      codes_(std::move(codes)),
      authority_(&authority),
      revocation_(gamma, codes_),
      rng_(rng) {
  std::sort(codes_.begin(), codes_.end());
}

std::vector<NodeState> issue_nodes(const predist::CodePoolAuthority& authority,
                                   const crypto::IbcAuthority& ibc, std::uint32_t n,
                                   std::uint32_t gamma, Rng& rng) {
  std::vector<NodeState> nodes;
  nodes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId id = node_id(i);
    nodes.emplace_back(id, ibc.issue(id), authority.assignment().codes_of(id), authority, gamma,
                       rng.split());
  }
  return nodes;
}

const dsss::SpreadCode& NodeState::code_pattern(CodeId code) const {
  if (!std::binary_search(codes_.begin(), codes_.end(), code)) {
    throw std::invalid_argument("NodeState::code_pattern: code not held");
  }
  return authority_->code(code);
}

BitVector NodeState::make_nonce(std::uint32_t bits) {
  BitVector nonce(bits);
  for (std::uint32_t i = 0; i < bits; ++i) nonce.set(i, rng_.bernoulli(0.5));
  return nonce;
}

void NodeState::add_logical_neighbor(NodeId peer, LogicalNeighbor info) {
  if (neighbors_.insert_or_assign(peer, std::move(info)).second) logical_stale_ = true;
}

const LogicalNeighbor* NodeState::neighbor(NodeId peer) const {
  const auto it = neighbors_.find(peer);
  return it == neighbors_.end() ? nullptr : &it->second;
}

const std::vector<NodeId>& NodeState::logical_neighbors() const {
  if (logical_stale_) {
    logical_.clear();
    for (const auto& entry : neighbors_) logical_.push_back(entry.first);
    std::sort(logical_.begin(), logical_.end());
    logical_stale_ = false;
  }
  return logical_;
}

void NodeState::remove_logical_neighbor(NodeId peer) {
  if (neighbors_.erase(peer) != 0) logical_stale_ = true;
}

}  // namespace jrsnd::core
