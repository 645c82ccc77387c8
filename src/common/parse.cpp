#include "common/parse.hpp"

#include <charconv>
#include <cmath>

namespace jrsnd {

namespace {

/// std::from_chars already refuses whitespace, '+', '-' on unsigned types
/// and out-of-range values; requiring it to consume every character makes
/// the parse strict.
template <typename T>
std::optional<T> parse_whole(std::string_view text) noexcept {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::uint32_t> parse_u32(std::string_view text) noexcept {
  return parse_whole<std::uint32_t>(text);
}

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  return parse_whole<std::uint64_t>(text);
}

std::optional<double> parse_double(std::string_view text) noexcept {
  const std::optional<double> value = parse_whole<double>(text);
  if (value.has_value() && !std::isfinite(*value)) return std::nullopt;
  return value;
}

}  // namespace jrsnd
