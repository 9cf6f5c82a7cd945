// Known-bad fixture for checked-numeric-parse: two strto* calls in
// different functions reuse the end-pointer name `end`. Only the second
// call checks it. The check must look for `*end` within the first call's
// own block, so the later function's check does not hide the first
// function's "4x" read as 4. This file is linted, never compiled.
// salsa-lint: expect(checked-numeric-parse)
#include <cstdlib>
#include <string>

namespace salsa_fixture {

inline long parse_steps(const std::string& text) {
  char* end = nullptr;
  return std::strtol(text.c_str(), &end, 10);  // end never looked at here
}

inline bool parse_seed(const std::string& text, long& out) {
  char* end = nullptr;
  out = std::strtol(text.c_str(), &end, 10);
  return !text.empty() && *end == '\0';
}

}  // namespace salsa_fixture
