#include "adversary/compromise.hpp"

#include <algorithm>
#include <stdexcept>

namespace jrsnd::adversary {

CompromiseModel::CompromiseModel(const predist::CodeAssignment& assignment, std::uint32_t q,
                                 Rng& rng) {
  const std::vector<NodeId> all = assignment.nodes();
  if (q > all.size()) throw std::invalid_argument("CompromiseModel: q exceeds node count");
  const std::vector<std::uint32_t> picks =
      rng.sample_without_replacement(static_cast<std::uint32_t>(all.size()), q);
  for (const std::uint32_t pick : picks) {
    const NodeId node = all[pick];
    compromised_nodes_.push_back(node);
    const std::vector<CodeId>& codes = assignment.codes_of(node);
    compromised_codes_.insert(compromised_codes_.end(), codes.begin(), codes.end());
  }
  std::sort(compromised_nodes_.begin(), compromised_nodes_.end());
  std::sort(compromised_codes_.begin(), compromised_codes_.end());
  compromised_codes_.erase(std::unique(compromised_codes_.begin(), compromised_codes_.end()),
                           compromised_codes_.end());
  if (!compromised_codes_.empty()) code_bits_.assign(raw(compromised_codes_.back()) / 64 + 1, 0);
  for (const CodeId code : compromised_codes_) {
    code_bits_[raw(code) / 64] |= std::uint64_t{1} << (raw(code) % 64);
  }
}

}  // namespace jrsnd::adversary
