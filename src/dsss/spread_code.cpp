#include "dsss/spread_code.hpp"

#include <stdexcept>

#include "dsss/sync_kernel.hpp"

namespace jrsnd::dsss {

SpreadCode::SpreadCode(BitVector chips, CodeId id) : chips_(std::move(chips)), id_(id) {
  if (chips_.empty()) throw std::invalid_argument("SpreadCode: empty chip pattern");
}

void SpreadCode::assign(const BitVector& chips) {
  if (chips.empty()) throw std::invalid_argument("SpreadCode: empty chip pattern");
  chips_ = chips;
}

SpreadCode SpreadCode::random(Rng& rng, std::size_t length, CodeId id) {
  BitVector chips;
  chips.assign_words(length,
                     [&](std::span<std::uint64_t> words) { rng.fill_coins(words, length); });
  return SpreadCode(std::move(chips), id);
}

double SpreadCode::correlate(const BitVector& window) const {
  if (window.size() != chips_.size()) {
    throw std::invalid_argument("SpreadCode::correlate: window length mismatch");
  }
  return correlate_at(window, 0, chips_);
}

bool uniform_code_lengths(std::span<const SpreadCode> codes) noexcept {
  for (const SpreadCode& code : codes) {
    if (code.length() != codes[0].length()) return false;
  }
  return true;
}

}  // namespace jrsnd::dsss
