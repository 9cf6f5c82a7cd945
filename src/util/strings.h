#pragma once

#include <cerrno>
#include <cstdlib>
#include <string>

#include "util/diagnostics.h"

namespace salsa {

// Builds "<prefix><n>". Equivalent to `prefix + std::to_string(n)`, but the
// append form sidesteps GCC 12's spurious -Wrestrict on the
// operator+(const char*, std::string&&) overload when it gets inlined at -O2
// (GCC PR 105329), which would otherwise break the -Werror build.
inline std::string numbered(const char* prefix, long long n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

/// Parses the whole of `text` as a decimal integer in [lo, hi] (lo >= 0);
/// throws salsa::Error naming `what` otherwise. "4x", "abc", "", " 3",
/// "-2" and out-of-range values are rejected, never read as a prefix or 0.
inline long long parse_int(const std::string& text, long long lo,
                           long long hi, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0' ||
      errno == ERANGE || n < lo || n > hi)
    fail(what + " must be an integer in " + std::to_string(lo) + ".." +
         std::to_string(hi) + "; got '" + text + "'");
  return n;
}

}  // namespace salsa
