#include "predist/authority.hpp"

#include <cassert>
#include <numeric>
#include <stdexcept>

namespace jrsnd::predist {

namespace {

const PredistParams& validated(const PredistParams& params) {
  if (params.node_count == 0 || params.codes_per_node == 0 || params.holders_per_code == 0) {
    throw std::invalid_argument("CodePoolAuthority: zero parameter");
  }
  return params;
}

}  // namespace

CodePoolAuthority::CodePoolAuthority(const PredistParams& params, Rng rng)
    : params_(validated(params)), rng_(rng), assignment_(params_.pool_size()) {
  // Generate the secret pool.
  const std::uint32_t s = params_.pool_size();
  pool_.reserve(s);
  for (std::uint32_t i = 0; i < s; ++i) {
    pool_.push_back(dsss::SpreadCode::random(rng_, params_.code_length_chips, code_id(i)));
  }

  // Initial distribution over n real nodes + l' virtual padding slots.
  const std::size_t padded = static_cast<std::size_t>(params_.groups_per_round()) *
                             params_.holders_per_code;
  std::vector<std::vector<CodeId>> sets = run_distribution(padded);
  // The first n slots are the real nodes; the rest are banked for joins.
  for (std::uint32_t i = 0; i < params_.node_count; ++i) {
    assignment_.assign(node_id(i), std::move(sets[i]));
  }
  for (std::size_t i = params_.node_count; i < padded; ++i) {
    virtual_bank_.push_back(std::move(sets[i]));
  }
  next_node_ = params_.node_count;
}

std::vector<std::vector<CodeId>> CodePoolAuthority::run_distribution(std::size_t slots) {
  const std::uint32_t w = params_.groups_per_round();
  assert(slots % w == 0);
  const std::size_t group_size = slots / w;
  const std::uint32_t m = params_.codes_per_node;

  std::vector<std::vector<CodeId>> sets(slots);
  std::vector<std::uint32_t> order(slots);
  std::iota(order.begin(), order.end(), 0u);

  for (std::uint32_t round = 0; round < m; ++round) {
    // Random partition: shuffle, then consecutive blocks form the groups.
    rng_.shuffle(std::span<std::uint32_t>(order));
    for (std::uint32_t group = 0; group < w; ++group) {
      const CodeId code = code_id(w * round + group);
      for (std::size_t member = 0; member < group_size; ++member) {
        sets[order[group * group_size + member]].push_back(code);
      }
    }
  }
  return sets;
}

const dsss::SpreadCode& CodePoolAuthority::code(CodeId id) const {
  const std::uint32_t idx = raw(id);
  if (idx >= pool_.size()) throw std::out_of_range("CodePoolAuthority::code: bad id");
  return pool_[idx];
}

std::vector<CodeId> CodePoolAuthority::join(NodeId new_node) {
  if (assignment_.has_node(new_node)) {
    throw std::invalid_argument("CodePoolAuthority::join: node already present");
  }
  if (virtual_bank_.empty()) {
    // Fresh cohort of w single-member groups per round: every code gains at
    // most one holder (paper §V-A join procedure).
    std::vector<std::vector<CodeId>> cohort = run_distribution(params_.groups_per_round());
    for (auto& set : cohort) virtual_bank_.push_back(std::move(set));
  }
  std::vector<CodeId> granted = std::move(virtual_bank_.back());
  virtual_bank_.pop_back();
  assignment_.assign(new_node, granted);
  return granted;
}

}  // namespace jrsnd::predist
