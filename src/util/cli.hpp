// Command-line and environment input checks shared by the tools, the
// benches and the NLC_* knobs. Bad input fails loudly: the reason (and,
// for a program's own flags, its usage text) goes to stderr and the
// program exits with status 2, so a typo never silently becomes a default.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

namespace nlc::cli {

/// Parses all of `text` as a decimal integer in [lo, hi]; nullopt for
/// anything else (empty, trailing characters, out of range).
inline std::optional<long long> parse_int_token(const char* text,
                                                long long lo, long long hi) {
  long long v = 0;
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || stop != end || stop == text || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

/// What parse_int_token(_, lo, hi) accepts, for error messages.
inline std::string int_range(long long lo, long long hi) {
  return "an integer in " + std::to_string(lo) + ".." + std::to_string(hi);
}

/// Prints "<var>: invalid value '<value>' (expected <accepts>)" to stderr
/// and exits 2. std::_Exit, not std::exit: a knob can first be read on a
/// trial worker thread, and std::exit would run the static pools'
/// destructors, which join that very thread.
[[noreturn]] inline void env_fail(const char* var, const char* value,
                                  const std::string& accepts) {
  std::fprintf(stderr, "%s: invalid value '%s' (expected %s)\n", var, value,
               accepts.c_str());
  std::_Exit(2);
}

/// Reads environment variable `var` as a whole decimal integer in
/// [lo, hi]. Unset or empty yields `fallback`; anything else exits 2.
inline long long env_int(const char* var, long long lo, long long hi,
                         long long fallback) {
  const char* v = std::getenv(var);
  if (v == nullptr || v[0] == '\0') return fallback;
  const std::optional<long long> n = parse_int_token(v, lo, hi);
  if (!n) env_fail(var, v, int_range(lo, hi));
  return *n;
}

class Usage {
 public:
  /// `text` is the full usage text, ending in a newline.
  Usage(std::string program, std::string text)
      : program_(std::move(program)), text_(std::move(text)) {}

  const std::string& text() const { return text_; }

  /// Prints "<program>: <why>" and the usage text to stderr; exits 2.
  [[noreturn]] void fail(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), why.c_str(),
                 text_.c_str());
    std::exit(2);
  }

  /// Parses all of `text` as a decimal integer in [lo, hi]; anything else
  /// fails, naming `what` (a flag or an environment variable).
  long long parse_int(const std::string& what, const char* text,
                      long long lo, long long hi) const {
    const std::optional<long long> v = parse_int_token(text, lo, hi);
    if (!v) {
      fail("invalid value '" + std::string(text) + "' for " + what +
           " (expected " + int_range(lo, hi) + ")");
    }
    return *v;
  }

 private:
  std::string program_;
  std::string text_;
};

}  // namespace nlc::cli
