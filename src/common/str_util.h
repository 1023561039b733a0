#ifndef COTE_COMMON_STR_UTIL_H_
#define COTE_COMMON_STR_UTIL_H_

#include <cstdarg>
#include <string>
#include <vector>

namespace cote {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins the elements with `sep`, e.g. Join({"a","b"}, ", ") -> "a, b".
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Lower-cases ASCII.
std::string ToLower(const std::string& s);

/// Renders a double with `prec` decimal digits.
std::string FormatDouble(double v, int prec = 3);

}  // namespace cote

#endif  // COTE_COMMON_STR_UTIL_H_
