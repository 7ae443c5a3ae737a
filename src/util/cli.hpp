// Command-line input checks shared by the tools and the benches. Bad input
// fails loudly: the reason and the program's usage text go to stderr and
// the program exits with status 2, so a typo never silently becomes a
// default.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

namespace nlc::cli {

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
    long long v = 0;
    const char* end = text + std::strlen(text);
    const auto [stop, ec] = std::from_chars(text, end, v);
    if (ec != std::errc{} || stop != end || stop == text || v < lo ||
        v > hi) {
      fail("invalid value '" + std::string(text) + "' for " + what +
           " (expected an integer in " + std::to_string(lo) + ".." +
           std::to_string(hi) + ")");
    }
    return v;
  }

 private:
  std::string program_;
  std::string text_;
};

}  // namespace nlc::cli
