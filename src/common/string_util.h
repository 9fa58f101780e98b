#ifndef GPUPERF_COMMON_STRING_UTIL_H_
#define GPUPERF_COMMON_STRING_UTIL_H_

/**
 * @file
 * Small string helpers shared across modules.
 */

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

namespace gpuperf {

/** Splits `text` on `sep`, keeping empty fields. */
std::vector<std::string> Split(std::string_view text, char sep);

/** Joins `parts` with `sep`. */
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/** Removes leading and trailing ASCII whitespace. */
std::string_view Trim(std::string_view text);

/** True if `text` begins with `prefix`. */
bool StartsWith(std::string_view text, std::string_view prefix);

/** printf-style formatting into a std::string. */
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/** Renders a double with `digits` significant digits, trimming zeros. */
std::string Pretty(double value, int digits = 4);

/** Human-readable engineering form, e.g. 1.23G, 45.6M, 789k. */
std::string Engineering(double value);

// Appenders for bulk text export (timeline CSV, Chrome trace JSON).
// Each writes the exact bytes of the printf conversion named in its
// comment — std::to_chars is specified as printf in the C locale — but
// formats into a stack buffer and appends in place: no format-string
// parse, no vsnprintf sizing pass, no temporary std::string. Defined
// here so every caller inlines them.

/** Appends `value` in decimal, as "%lld" (and "%d", "%ld"). */
inline void AppendInt(std::string& out, long long value) {
  char digits[20];  // any int64, sign included
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

/** Appends `value` in decimal, as "%llu". */
inline void AppendUint(std::string& out, unsigned long long value) {
  char digits[20];  // any uint64
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

/** Appends `value` as "%g" (six significant digits). */
inline void AppendGeneral(std::string& out, double value) {
  // "%g" prints a whole number of magnitude below 1e6 as its decimal
  // digits — every full-window rate_per_s is one — so skip to_chars'
  // shortest-digits search for it. -0.0 still goes below and prints -0.
  if (value > -1e6 && value < 1e6) {
    const auto whole = static_cast<long long>(value);
    if (static_cast<double>(whole) == value &&
        (whole != 0 || !std::signbit(value))) {
      AppendInt(out, whole);
      return;
    }
  }
  // Longest "%g" output is 13 bytes ("-1.23457e-308"), or "-nan".
  char text[24];
  out.append(text, std::to_chars(text, text + sizeof(text), value,
                                 std::chars_format::general, 6)
                       .ptr);
}

/** Appends `value` as "%.3f" (trace timestamps and durations). */
inline void AppendFixed3(std::string& out, double value) {
  // Widest "%.3f" output is -DBL_MAX: 309 integer digits, a sign, the
  // point and 3 decimals — 314 bytes, so to_chars cannot run short.
  char text[320];
  out.append(text, std::to_chars(text, text + sizeof(text), value,
                                 std::chars_format::fixed, 3)
                       .ptr);
}

}  // namespace gpuperf

#endif  // GPUPERF_COMMON_STRING_UTIL_H_
