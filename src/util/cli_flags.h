// Strict numeric parsing for tool command lines, and the one checked write of
// a tool's output file.
//
// The tools historically used bare atoi/atof, which silently turn
// "--episodes banana" into 0 and accept out-of-range values. These helpers
// require the whole token to parse and the value to sit inside a
// caller-declared range.
//
// Two layers: the TryParse* cores validate without any side effect and
// report the reason on failure (fuzzable — fuzz/fuzz_cli_flags.cc drives
// them with arbitrary bytes); the Parse* wrappers keep the historical CLI
// contract of printing one clear line to stderr and exit(1)-ing. CLI-only by
// design — library code should never exit.

#ifndef SRC_UTIL_CLI_FLAGS_H_
#define SRC_UTIL_CLI_FLAGS_H_

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/util/time.h"

namespace astraea {
namespace cli {

[[noreturn]] inline void FlagError(const char* flag, const char* value, const char* why) {
  std::fprintf(stderr, "invalid value for %s: '%s' (%s)\n", flag, value, why);
  std::exit(1);
}

namespace internal {
inline void SetWhy(std::string* why, const char* message) {
  if (why != nullptr) {
    *why = message;
  }
}
}  // namespace internal

// Each TryParse* returns false (with `*why` describing the reason, when
// non-null) instead of exiting; `*out` is untouched on failure.

inline bool TryParseInt(const char* value, int64_t lo, int64_t hi, int64_t* out,
                        std::string* why = nullptr) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0') {
    internal::SetWhy(why, "not an integer");
    return false;
  }
  if (errno == ERANGE || v < lo || v > hi) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "must be in [%" PRId64 ", %" PRId64 "]", lo, hi);
    internal::SetWhy(why, buf);
    return false;
  }
  *out = v;
  return true;
}

inline bool TryParseU64(const char* value, uint64_t* out, std::string* why = nullptr) {
  errno = 0;
  char* end = nullptr;
  if (value[0] == '-') {
    internal::SetWhy(why, "must be non-negative");
    return false;
  }
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    internal::SetWhy(why, "not an integer");
    return false;
  }
  if (errno == ERANGE) {
    internal::SetWhy(why, "out of range for uint64");
    return false;
  }
  *out = v;
  return true;
}

inline bool TryParseDouble(const char* value, double lo, double hi, double* out,
                           std::string* why = nullptr) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    internal::SetWhy(why, "not a number");
    return false;
  }
  if (errno == ERANGE || !(v >= lo && v <= hi)) {  // !(>=) also rejects NaN
    char buf[96];
    std::snprintf(buf, sizeof(buf), "must be in [%g, %g]", lo, hi);
    internal::SetWhy(why, buf);
    return false;
  }
  *out = v;
  return true;
}

// Parses a human-readable duration — a nonnegative decimal number immediately
// followed by one of the suffixes "ns", "us", "ms", "s" (e.g. "500us", "5ms",
// "1.5s") — into nanoseconds. The suffix is mandatory: a bare number would
// silently mean different things to different flags. The result must land in
// [lo, hi] nanoseconds.
inline bool TryParseDuration(const char* value, TimeNs lo, TimeNs hi, TimeNs* out,
                             std::string* why = nullptr) {
  errno = 0;
  char* end = nullptr;
  const double magnitude = std::strtod(value, &end);
  if (end == value) {
    internal::SetWhy(why, "not a duration (expected e.g. 500us, 5ms, 1s)");
    return false;
  }
  if (errno == ERANGE || !(magnitude >= 0.0) || !std::isfinite(magnitude)) {
    internal::SetWhy(why, "duration must be a finite nonnegative number");
    return false;
  }
  double scale = 0.0;
  if (std::strcmp(end, "ns") == 0) {
    scale = 1.0;
  } else if (std::strcmp(end, "us") == 0) {
    scale = static_cast<double>(kNanosPerMicro);
  } else if (std::strcmp(end, "ms") == 0) {
    scale = static_cast<double>(kNanosPerMilli);
  } else if (std::strcmp(end, "s") == 0) {
    scale = static_cast<double>(kNanosPerSec);
  } else {
    internal::SetWhy(why, "missing or unknown unit (use ns, us, ms or s)");
    return false;
  }
  const double ns = magnitude * scale;
  if (ns > static_cast<double>(INT64_MAX)) {
    internal::SetWhy(why, "duration overflows the nanosecond range");
    return false;
  }
  const TimeNs result = static_cast<TimeNs>(std::llround(ns));
  if (result < lo || result > hi) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "must be in [%" PRId64 "ns, %" PRId64 "ns]", lo, hi);
    internal::SetWhy(why, buf);
    return false;
  }
  *out = result;
  return true;
}

inline int64_t ParseInt(const char* flag, const char* value, int64_t lo, int64_t hi) {
  int64_t out = 0;
  std::string why;
  if (!TryParseInt(value, lo, hi, &out, &why)) {
    FlagError(flag, value, why.c_str());
  }
  return out;
}

inline uint64_t ParseU64(const char* flag, const char* value) {
  uint64_t out = 0;
  std::string why;
  if (!TryParseU64(value, &out, &why)) {
    FlagError(flag, value, why.c_str());
  }
  return out;
}

inline double ParseDouble(const char* flag, const char* value, double lo, double hi) {
  double out = 0.0;
  std::string why;
  if (!TryParseDouble(value, lo, hi, &out, &why)) {
    FlagError(flag, value, why.c_str());
  }
  return out;
}

inline TimeNs ParseDuration(const char* flag, const char* value, TimeNs lo, TimeNs hi) {
  TimeNs out = 0;
  std::string why;
  if (!TryParseDuration(value, lo, hi, &out, &why)) {
    FlagError(flag, value, why.c_str());
  }
  return out;
}

// Strictly positive duration: "0ms" (and anything negative, which
// TryParseDuration already refuses) gets a clear rejection instead of
// silently configuring a zero window/timeout that busy-loops or never waits.
// The serving flags (--batch-window, --rpc-timeout, --connect-timeout) all
// parse through here.
inline TimeNs ParsePositiveDuration(const char* flag, const char* value, TimeNs hi) {
  TimeNs out = 0;
  std::string why;
  if (!TryParseDuration(value, 1, hi, &out, &why)) {
    if (TryParseDuration(value, 0, hi, &out)) {
      FlagError(flag, value, "must be a positive duration");
    }
    FlagError(flag, value, why.c_str());
  }
  return out;
}

// Writes `text` to `path`, replacing the file. A file that cannot be opened,
// written or closed (a missing directory, a full disk) is named on stderr as
// "cannot write <path>" and false is returned, so the tool exits 1 rather than
// lose its report without a word.
inline bool WriteOutputFile(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  const bool written = out != nullptr && std::fputs(text.c_str(), out) >= 0;
  if (out == nullptr || std::fclose(out) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace cli
}  // namespace astraea

#endif  // SRC_UTIL_CLI_FLAGS_H_
