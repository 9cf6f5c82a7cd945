// Known-bad fixture for checked-numeric-parse: a command-line front end
// reading its numbers with atoi, sscanf, std::stoi without a position
// argument and strto* calls whose end pointer is missing or never
// inspected. Each accepts "4x" as 4 with no diagnostic. This file is
// linted, never compiled.
// salsa-lint: expect(checked-numeric-parse)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace salsa_fixture {

struct Args {
  int steps = 17;
  uint64_t seed = 1;
  long budget = 0;
  int width = 16;
  int depth = 4;
};

inline Args parse_args(int argc, char** argv) {
  Args a;
  if (argc > 1) a.steps = std::atoi(argv[1]);
  if (argc > 2) a.seed = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) {
    char* end = nullptr;
    a.budget = std::strtol(argv[3], &end, 10);  // end never looked at
  }
  if (argc > 4) std::sscanf(argv[4], "%d", &a.width);
  if (argc > 5) a.depth = std::stoi(std::string(argv[5]));
  return a;
}

}  // namespace salsa_fixture
