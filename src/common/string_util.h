#ifndef DMLSCALE_COMMON_STRING_UTIL_H_
#define DMLSCALE_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dmlscale {

/// Joins with `sep`; an empty list yields `empty`, so error messages can
/// render "<none>" instead of nothing.
std::string Join(const std::vector<std::string>& parts, std::string_view sep,
                 std::string_view empty = "");

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True when `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a decimal integer; rejects trailing garbage.
[[nodiscard]] Result<int64_t> ParseInt64(std::string_view s);

/// Parses a double; rejects trailing garbage.
[[nodiscard]] Result<double> ParseDouble(std::string_view s);

/// Formats a double with `precision` significant digits.
std::string FormatDouble(double v, int precision = 6);

/// Human-readable count, e.g. 12000000 -> "12.0M".
std::string HumanCount(double v);

}  // namespace dmlscale

#endif  // DMLSCALE_COMMON_STRING_UTIL_H_
