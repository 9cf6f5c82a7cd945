// Known-good fixture for checked-numeric-parse: a strto* call whose end
// pointer is inspected after the call, and a std::stoi call whose position
// argument is compared with the text's length. The lint must stay SILENT on
// this file (no expect() directives), so the check cannot drift into
// flagging every strto* or std::sto* call. This file is linted, never
// compiled.
#include <cstdlib>
#include <string>

namespace salsa_fixture {

inline bool parse_probability(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && out >= 0 && out <= 1;
}

inline bool parse_width(const std::string& text, int& out) {
  std::size_t pos = 0;
  out = std::stoi(text, &pos);
  return pos == text.size();
}

}  // namespace salsa_fixture
