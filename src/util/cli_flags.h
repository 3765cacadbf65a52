// The one command-line reader of every tool and bench, the strict value
// parsers it checks values with, and the one checked write of a tool's
// output file.
//
// There is one spelling: `--flag VALUE` for a flag that takes a value,
// `--flag` for a switch, plus at most one positional argument where a tool
// declares one. Every error names the argument:
//   unknown flag: --flg
//   missing value for --flag
//   invalid value for --flag: 'VALUE' (why)
// FlagSet::Parse prints the message on stderr and exits 1; TryParse returns
// it instead (BenchRecord and fuzz/fuzz_cli_flags.cc use it).
//
// The TryParse* cores require the whole token to parse and the value to sit
// inside a caller-declared range (bare atoi once turned "--episodes banana"
// into 0); they validate without any side effect and report the reason on
// failure, so chaos schedules and failpoint specs use them too. CLI-only by
// design — library code should never exit.

#ifndef SRC_UTIL_CLI_FLAGS_H_
#define SRC_UTIL_CLI_FLAGS_H_

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/util/time.h"

namespace astraea {
namespace cli {

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

// The one command-line reader. Each flag is bound once to its destination;
// a value is checked by the TryParse* core its binding names. A repeated
// flag keeps its last value.
class FlagSet {
 public:
  // `--name` alone sets *out.
  FlagSet& Switch(std::string name, bool* out) {
    flags_.push_back({std::move(name), false, [out](const char*, std::string*) {
                        *out = true;
                        return true;
                      }});
    return *this;
  }
  // `--name VALUE`: `apply` checks and stores VALUE, or returns false with the
  // reason in *why.
  FlagSet& Value(std::string name, std::function<bool(const char*, std::string*)> apply) {
    flags_.push_back({std::move(name), true, std::move(apply)});
    return *this;
  }
  FlagSet& String(std::string name, std::string* out) {
    return Value(std::move(name), [out](const char* value, std::string*) {
      *out = value;
      return true;
    });
  }
  // An integer in [lo, hi], stored as T.
  template <typename T>
  FlagSet& Int(std::string name, int64_t lo, int64_t hi, T* out) {
    return Value(std::move(name), [lo, hi, out](const char* value, std::string* why) {
      int64_t v = 0;
      if (!TryParseInt(value, lo, hi, &v, why)) {
        return false;
      }
      *out = static_cast<T>(v);
      return true;
    });
  }
  FlagSet& U64(std::string name, uint64_t* out) {
    return Value(std::move(name), [out](const char* value, std::string* why) {
      return TryParseU64(value, out, why);
    });
  }
  FlagSet& Double(std::string name, double lo, double hi, double* out) {
    return Value(std::move(name), [lo, hi, out](const char* value, std::string* why) {
      return TryParseDouble(value, lo, hi, out, why);
    });
  }
  FlagSet& Duration(std::string name, TimeNs lo, TimeNs hi, TimeNs* out) {
    return Value(std::move(name), [lo, hi, out](const char* value, std::string* why) {
      return TryParseDuration(value, lo, hi, out, why);
    });
  }
  // A duration in [1ns, hi]. Zero gets its own rejection: a zero batch window
  // or timeout would busy-loop or never wait.
  FlagSet& PositiveDuration(std::string name, TimeNs hi, TimeNs* out) {
    return Value(std::move(name), [hi, out](const char* value, std::string* why) {
      if (TryParseDuration(value, 1, hi, out, why)) {
        return true;
      }
      TimeNs zero = 0;
      if (TryParseDuration(value, 0, hi, &zero)) {
        internal::SetWhy(why, "must be a positive duration");
      }
      return false;
    });
  }
  // The one argument that is not a flag, such as trace_dump's input file. An
  // argument that starts with '-', or a second one, is an unknown flag.
  FlagSet& Positional(std::string* out) {
    positional_ = out;
    return *this;
  }

  // Reads argv[1..argc). Returns false with `*error` naming the argument at
  // the first one that is unknown, lacks its value or has a bad value.
  bool TryParse(int argc, char* const* argv, std::string* error) const {
    bool positional_read = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                     [&arg](const Flag& f) { return f.name == arg; });
      if (flag == flags_.end()) {
        if (positional_ == nullptr || positional_read || arg.starts_with('-')) {
          *error = "unknown flag: " + arg;
          return false;
        }
        *positional_ = arg;
        positional_read = true;
      } else if (!flag->takes_value) {
        flag->apply(nullptr, nullptr);
      } else if (i + 1 >= argc) {
        *error = "missing value for " + arg;
        return false;
      } else {
        const char* value = argv[++i];
        std::string why;
        if (!flag->apply(value, &why)) {
          *error = "invalid value for " + arg + ": '" + value + "' (" + why + ")";
          return false;
        }
      }
    }
    return true;
  }

  // TryParse, but an error is printed on stderr and exits 1.
  void Parse(int argc, char* const* argv) const {
    std::string error;
    if (!TryParse(argc, argv, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      std::exit(1);
    }
  }

 private:
  struct Flag {
    std::string name;
    bool takes_value;
    std::function<bool(const char*, std::string*)> apply;
  };
  std::vector<Flag> flags_;
  std::string* positional_ = nullptr;
};

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
