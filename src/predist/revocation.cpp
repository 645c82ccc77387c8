#include "predist/revocation.hpp"

#include <algorithm>
#include <stdexcept>

namespace jrsnd::predist {

RevocationState::RevocationState(std::uint32_t gamma, const std::vector<CodeId>& codes)
    : gamma_(gamma) {
  for (const CodeId code : codes) entries_.emplace(code, Entry{});
  usable_.reserve(entries_.size());
  for (const auto& [code, entry] : entries_) usable_.push_back(code);
  std::sort(usable_.begin(), usable_.end());
}

void RevocationState::mark_revoked(CodeId code, Entry& entry) {
  entry.revoked = true;
  const auto it = std::lower_bound(usable_.begin(), usable_.end(), code);
  usable_.erase(it);
}

bool RevocationState::report_invalid(CodeId code) {
  const auto it = entries_.find(code);
  if (it == entries_.end()) {
    throw std::invalid_argument("RevocationState::report_invalid: code not held");
  }
  Entry& entry = it->second;
  if (entry.revoked) return false;  // already revoked: no further despreading
  ++total_;
  ++entry.invalid;
  if (entry.invalid > gamma_) {
    mark_revoked(code, entry);
    return true;
  }
  return false;
}

bool RevocationState::revoke(CodeId code) {
  const auto it = entries_.find(code);
  if (it == entries_.end() || it->second.revoked) return false;
  mark_revoked(code, it->second);
  return true;
}

bool RevocationState::is_revoked(CodeId code) const {
  const auto it = entries_.find(code);
  return it != entries_.end() && it->second.revoked;
}

bool RevocationState::is_usable(CodeId code) const {
  const auto it = entries_.find(code);
  return it != entries_.end() && !it->second.revoked;
}

std::uint32_t RevocationState::invalid_count(CodeId code) const {
  const auto it = entries_.find(code);
  if (it == entries_.end()) return 0;
  return it->second.invalid;
}

}  // namespace jrsnd::predist
