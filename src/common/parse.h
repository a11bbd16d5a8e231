// Strict decimal parsing for CLI values. The bare strtoull it replaces
// accepted signs and leading whitespace and silently wrapped negatives
// ("--ingest workers=-1" became 4294967295 workers); every flag parse
// site routes through here instead. ParseDouble does the same for the
// atof/strtod calls that ran "6O" as 6 and "0,03" as 0.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace burtree {

/// Parses a non-negative decimal integer. Accepts only [0-9]+ — a
/// leading '-' or '+', whitespace, a hex/octal prefix, and trailing
/// junk are all rejected. Returns false (leaving `out` untouched) on
/// malformed input, overflow, or a value above `max`.
inline bool ParseUint64(const std::string& s, uint64_t* out,
                        uint64_t max = UINT64_MAX) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  if (v > max) return false;
  *out = v;
  return true;
}

/// Signed companion: an optional single leading '-' then [0-9]+, with
/// INT64_MIN/MAX range checks. Same rejections otherwise.
inline bool ParseInt64(const std::string& s, int64_t* out) {
  const bool neg = !s.empty() && s[0] == '-';
  uint64_t mag = 0;
  if (!ParseUint64(neg ? s.substr(1) : s, &mag,
                   neg ? (1ull << 63) : ((1ull << 63) - 1))) {
    return false;
  }
  if (mag == 0) {
    *out = 0;
  } else if (neg) {
    *out = -static_cast<int64_t>(mag - 1) - 1;  // reaches INT64_MIN
  } else {
    *out = static_cast<int64_t>(mag);
  }
  return true;
}

/// Parses a finite decimal number: an optional sign, digits with an
/// optional '.', and an optional exponent ("0.03", "-2", "1e-3"). The
/// whole string must be consumed, so whitespace, trailing junk, a
/// decimal comma, hex, "inf"/"nan" and out-of-range values all fail.
/// Returns false (leaving `out` untouched) on malformed input.
inline bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  for (char c : s) {
    if ((c < '0' || c > '9') && c != '.' && c != '-' && c != '+' &&
        c != 'e' && c != 'E') {
      return false;
    }
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace burtree
