// Strict number parsing for command-line flags and JRSND_* knobs: the whole
// string must be one in-range number — no whitespace, no trailing junk
// ("4abc"), no sign on unsigned values ("-1"), no overflow ("4294967296" is
// not a u32) — or the result is nullopt, never a truncated or wrapped value.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace jrsnd {

[[nodiscard]] std::optional<std::uint32_t> parse_u32(std::string_view text) noexcept;
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept;
/// Finite decimal or scientific doubles only: "inf", "nan" and "+1" fail.
[[nodiscard]] std::optional<double> parse_double(std::string_view text) noexcept;

}  // namespace jrsnd
