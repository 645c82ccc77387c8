#include "core/jrsnd_node.hpp"

#include <algorithm>
#include <cassert>

namespace jrsnd::core {

NodeState::NodeState(NodeId id, crypto::IbcPrivateKey key, std::vector<CodeId> codes,
                     const predist::CodePoolAuthority& authority, std::uint32_t gamma, Rng rng)
    : id_(id),
      key_(std::move(key)),
      authority_(&authority),
      revocation_(gamma, std::move(codes)),
      rng_(rng) {}

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
  assert(std::binary_search(all_codes().begin(), all_codes().end(), code));
  return authority_->code(code);
}

BitVector NodeState::make_nonce(std::uint32_t bits) {
  BitVector nonce;
  make_nonce_into(bits, nonce);
  return nonce;
}

void NodeState::make_nonce_into(std::uint32_t bits, BitVector& out) {
  out.assign_words(bits, [&](std::span<std::uint64_t> words) { rng_.fill_coins(words, bits); });
}

void NodeState::add_logical_neighbor(NodeId peer, LogicalNeighbor info) {
  const auto it = std::lower_bound(logical_.begin(), logical_.end(), peer);
  const auto i = it - logical_.begin();
  if (it != logical_.end() && *it == peer) {
    links_[static_cast<std::size_t>(i)] = std::move(info);
    return;
  }
  logical_.insert(it, peer);
  links_.insert(links_.begin() + i, std::move(info));
}

const LogicalNeighbor* NodeState::neighbor(NodeId peer) const {
  const auto it = std::lower_bound(logical_.begin(), logical_.end(), peer);
  if (it == logical_.end() || *it != peer) return nullptr;
  return &links_[static_cast<std::size_t>(it - logical_.begin())];
}

void NodeState::remove_logical_neighbor(NodeId peer) {
  const auto it = std::lower_bound(logical_.begin(), logical_.end(), peer);
  if (it == logical_.end() || *it != peer) return;
  links_.erase(links_.begin() + (it - logical_.begin()));
  logical_.erase(it);
}

}  // namespace jrsnd::core
