// Strict whole-string numeric parsing, shared by the bench flag parser
// (bench/bench_util.h) and the trace reader (src/workload/trace_io.cpp).
//
// Every parser rejects empty input, leading whitespace, a leading '+',
// trailing characters, overflow, and values outside the caller's range.
// The first character must be a digit (or '-' where negatives are allowed,
// or '.' for doubles): strtoll/strtoull/strtod themselves skip leading
// whitespace and accept '+', and strtoull wraps a negative number into
// range without setting ERANGE, so " -1" would come back as 2^64 - 1.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace cosched {

/// Strict decimal parse of a whole C string into [min_value, max_value].
inline bool parse_int64(const char* s, std::int64_t min_value,
                        std::int64_t max_value, std::int64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  const char* digits = (*s == '-') ? s + 1 : s;
  if (*digits < '0' || *digits > '9') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (v < min_value || v > max_value) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

/// parse_int64 into an int32 range.
inline bool parse_int32(const char* s, std::int32_t min_value,
                        std::int32_t max_value, std::int32_t* out) {
  std::int64_t v = 0;
  if (!parse_int64(s, min_value, max_value, &v)) return false;
  *out = static_cast<std::int32_t>(v);
  return true;
}

/// Strict decimal parse of a whole C string into a uint64; the first
/// character must be a digit.
inline bool parse_uint64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

/// Strict decimal parse of a whole C string into [min_value, max_value].
/// The first character must be a digit, '-', or '.', so inf/nan spellings
/// are rejected; out-of-range magnitudes fail on ERANGE. The result is
/// always finite.
inline bool parse_double(const char* s, double min_value, double max_value,
                         double* out) {
  if (s == nullptr || *s == '\0') return false;
  const char* digits = (*s == '-') ? s + 1 : s;
  if ((*digits < '0' || *digits > '9') && *digits != '.') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (!(v >= min_value && v <= max_value)) return false;  // also rejects NaN
  *out = v;
  return true;
}

}  // namespace cosched
