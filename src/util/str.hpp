// Small string helpers shared across parsers (Gafgyt/Daddyl33t text C2
// protocols, IDS rules) and report rendering.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace malnet::util {

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Splits on any run of whitespace; no empty fields.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] std::string to_upper(std::string_view s);

[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

/// Strict unsigned parse; rejects empty strings, signs, and trailing junk.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s);

/// Fixed-width left/right padding with spaces (for ASCII tables).
[[nodiscard]] std::string pad_left(std::string_view s, std::size_t width);
[[nodiscard]] std::string pad_right(std::string_view s, std::size_t width);

/// Formats a double with `digits` decimal places.
[[nodiscard]] std::string fixed(double v, int digits);

/// Formats a fraction as a percentage string, e.g. 0.153 -> "15.3%".
[[nodiscard]] std::string percent(double fraction, int digits = 1);

}  // namespace malnet::util
