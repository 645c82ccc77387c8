#include "predist/revocation.hpp"

#include <algorithm>
#include <stdexcept>

namespace jrsnd::predist {

RevocationState::RevocationState(std::uint32_t gamma, std::vector<CodeId> codes)
    : gamma_(gamma), held_(std::move(codes)) {
  std::sort(held_.begin(), held_.end());
  held_.erase(std::unique(held_.begin(), held_.end()), held_.end());
  invalid_.assign(held_.size(), 0);
  usable_ = held_;
}

bool RevocationState::report_invalid(CodeId code) {
  const auto it = std::lower_bound(held_.begin(), held_.end(), code);
  if (it == held_.end() || *it != code) {
    throw std::invalid_argument("RevocationState::report_invalid: code not held");
  }
  if (!is_usable(code)) return false;  // already revoked: no further despreading
  ++total_;
  if (++invalid_[static_cast<std::size_t>(it - held_.begin())] > gamma_) return revoke(code);
  return false;
}

bool RevocationState::revoke(CodeId code) {
  const auto it = std::lower_bound(usable_.begin(), usable_.end(), code);
  if (it == usable_.end() || *it != code) return false;
  usable_.erase(it);
  return true;
}

bool RevocationState::is_revoked(CodeId code) const {
  return std::binary_search(held_.begin(), held_.end(), code) && !is_usable(code);
}

bool RevocationState::is_usable(CodeId code) const {
  return std::binary_search(usable_.begin(), usable_.end(), code);
}

std::uint32_t RevocationState::invalid_count(CodeId code) const {
  const auto it = std::lower_bound(held_.begin(), held_.end(), code);
  if (it == held_.end() || *it != code) return 0;
  return invalid_[static_cast<std::size_t>(it - held_.begin())];
}

}  // namespace jrsnd::predist
