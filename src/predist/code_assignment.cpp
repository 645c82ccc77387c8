#include "predist/code_assignment.hpp"

#include <algorithm>
#include <stdexcept>

namespace jrsnd::predist {

void CodeAssignment::assign(NodeId node, std::vector<CodeId> codes) {
  std::sort(codes.begin(), codes.end());
  if (!codes.empty() && raw(codes.back()) >= per_code_.size()) {
    throw std::out_of_range("CodeAssignment::assign: code outside the pool");
  }
  const auto it = std::lower_bound(per_node_.begin(), per_node_.end(), node);
  if (it != per_node_.end() && it->node == node) {
    throw std::invalid_argument("CodeAssignment::assign: node already assigned");
  }
  for (const CodeId code : codes) {
    std::vector<NodeId>& holders = per_code_[raw(code)];
    holders.insert(std::upper_bound(holders.begin(), holders.end(), node), node);
  }
  per_node_.insert(it, NodeCodes{node, std::move(codes)});
}

bool CodeAssignment::has_node(NodeId node) const {
  const auto it = std::lower_bound(per_node_.begin(), per_node_.end(), node);
  return it != per_node_.end() && it->node == node;
}

const std::vector<CodeId>& CodeAssignment::codes_of(NodeId node) const {
  const auto it = std::lower_bound(per_node_.begin(), per_node_.end(), node);
  if (it == per_node_.end() || it->node != node) {
    throw std::out_of_range("CodeAssignment::codes_of: unknown node");
  }
  return it->codes;
}

std::vector<CodeId> CodeAssignment::shared_codes(NodeId a, NodeId b) const {
  const auto& ca = codes_of(a);
  const auto& cb = codes_of(b);
  std::vector<CodeId> out;
  std::set_intersection(ca.begin(), ca.end(), cb.begin(), cb.end(), std::back_inserter(out));
  return out;
}

std::vector<NodeId> CodeAssignment::holders_of(CodeId code) const {
  if (raw(code) >= per_code_.size()) return {};
  return per_code_[raw(code)];
}

std::vector<NodeId> CodeAssignment::nodes() const {
  std::vector<NodeId> out;
  out.reserve(per_node_.size());
  for (const NodeCodes& entry : per_node_) out.push_back(entry.node);
  return out;
}

std::size_t CodeAssignment::max_holders() const {
  std::size_t max_count = 0;
  for (const auto& holders : per_code_) max_count = std::max(max_count, holders.size());
  return max_count;
}

std::vector<std::size_t> CodeAssignment::shared_count_histogram() const {
  const std::vector<NodeId> all = nodes();
  std::vector<std::size_t> histogram;
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      const std::size_t x = shared_codes(all[i], all[j]).size();
      if (x >= histogram.size()) histogram.resize(x + 1, 0);
      ++histogram[x];
    }
  }
  return histogram;
}

}  // namespace jrsnd::predist
