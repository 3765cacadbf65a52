// Fuzz target: the command-line reader (src/util/cli_flags.h) without
// exiting, via the TryParse* cores and FlagSet::TryParse. Contracts under
// arbitrary (NUL-terminated) text: no crash, no exit, any accepted value sits
// inside the caller-declared range, and the input split on whitespace and
// NUL into an argv either reads or fails with a message naming one of its
// arguments.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/util/cli_flags.h"

namespace {

// The argv a shell would pass for `text`: "fuzz", then its words.
std::vector<std::string> SplitArgs(const std::string& text) {
  std::vector<std::string> args = {"fuzz"};
  std::string word;
  for (const char c : text + ' ') {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\0') {
      if (!word.empty()) {
        args.push_back(word);
        word.clear();
      }
    } else {
      word += c;
    }
  }
  return args;
}

void ReadArgv(const std::string& text) {
  std::vector<std::string> args = SplitArgs(text);
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  bool on = false;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0.0;
  astraea::TimeNs t = 1;
  std::string s;
  std::string positional;
  std::string error;
  const bool ok = astraea::cli::FlagSet()
                      .Switch("--on", &on)
                      .Int("--i", -100, 100, &i)
                      .U64("--u", &u)
                      .Double("--d", 0.0, 1.0, &d)
                      .PositiveDuration("--t", astraea::Seconds(60.0), &t)
                      .String("--s", &s)
                      .Positional(&positional)
                      .TryParse(static_cast<int>(argv.size()), argv.data(), &error);
  if (!(i >= -100 && i <= 100 && d >= 0.0 && d <= 1.0 && t >= 1 && t <= astraea::Seconds(60.0))) {
    std::abort();
  }
  if (ok) {
    return;
  }
  for (size_t a = 1; a < args.size(); ++a) {
    if (error.find(args[a]) != std::string::npos) {
      return;
    }
  }
  std::abort();  // an error that names no argument
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::string why;

  int64_t i = 0;
  if (astraea::cli::TryParseInt(text.c_str(), -100, 100, &i, &why) && (i < -100 || i > 100)) {
    std::abort();
  }
  uint64_t u = 0;
  astraea::cli::TryParseU64(text.c_str(), &u, &why);
  double d = 0.0;
  if (astraea::cli::TryParseDouble(text.c_str(), 0.0, 1.0, &d, &why) && !(d >= 0.0 && d <= 1.0)) {
    std::abort();
  }
  astraea::TimeNs t = 0;
  if (astraea::cli::TryParseDuration(text.c_str(), astraea::Microseconds(10),
                                     astraea::Seconds(60.0), &t, &why) &&
      (t < astraea::Microseconds(10) || t > astraea::Seconds(60.0))) {
    std::abort();
  }
  ReadArgv(text);
  return 0;
}
