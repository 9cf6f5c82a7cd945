#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <sys/wait.h>

#include "util/diagnostics.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace salsa {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform(13);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 13);
  }
}

TEST(Rng, UniformCoversAllResidues) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(5);
  const double w[] = {0.0, 1.0, 0.0, 2.0};
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 3000; ++i) ++counts[rng.weighted(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_GT(counts[3], counts[1]);  // weight 2 vs 1
}

TEST(Rng, WeightedAllZeroThrows) {
  Rng rng(5);
  const double w[] = {0.0, 0.0};
  EXPECT_THROW(rng.weighted(w), Error);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Diagnostics, CheckFailureThrowsWithLocation) {
  try {
    SALSA_CHECK_MSG(false, "context message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context message"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Diagnostics, FailThrows) { EXPECT_THROW(fail("boom"), Error); }

TEST(ParseInt, AcceptsWholeDecimalsInRange) {
  EXPECT_EQ(parse_int("0", 0, 9, "n"), 0);
  EXPECT_EQ(parse_int("42", 1, 100, "n"), 42);
  EXPECT_EQ(parse_int("9223372036854775807", 0, INT64_MAX, "seed"),
            INT64_MAX);
}

TEST(ParseInt, RejectsMalformedAndOutOfRange) {
  for (const char* bad : {"abc", "4x", "", " 3", "-2", "+3", "1e3", "0x10",
                          "101", "99999999999999999999"}) {
    try {
      parse_int(bad, 0, 100, "--flag");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--flag must be an integer in "
                                           "0..100"),
                std::string::npos)
          << e.what();
    }
  }
}

// Runs a command line, returning its exit status and combined output.
std::pair<int, std::string> run_command(const std::string& cmd) {
  std::string out;
  FILE* p = ::popen((cmd + " 2>&1").c_str(), "r");
  if (p == nullptr) return {-1, out};
  char buf[256];
  while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
  const int status = ::pclose(p);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(NumericFlags, ToolsRejectMalformedCounts) {
  // A malformed count stops the tool with a diagnostic instead of running
  // with a silently truncated prefix (or zero) of the value.
  for (const char* args : {"--transactions abc", "--threads 4x",
                           "--sim-ops 12q", "--seed -1"}) {
    const auto [code, out] =
        run_command(std::string(SALSA_AUDIT_BIN) + " " + args);
    EXPECT_NE(code, 0) << args;
    EXPECT_NE(out.find("must be an integer in"), std::string::npos)
        << args << ": " << out;
  }
  const auto [code, out] =
      run_command(std::string(SALSA_CLI_BIN) + " design.salsa --steps 4x");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--steps must be an integer in"), std::string::npos)
      << out;
}

TEST(NumericFlags, ExamplesRejectMalformedArguments) {
  // The examples' positional arguments go through the same parser: "4x" is
  // refused before any work starts, not read as 4.
  const std::pair<std::string, std::string> runs[] = {
      {std::string(EWF_FLOW_BIN) + " 4x", "csteps must be an integer in"},
      {std::string(EWF_FLOW_BIN) + " 17 yes", "pipelined must be"},
      {std::string(DCT_FLOW_BIN) + " -1", "extra_regs must be"},
      {std::string(STRESS_BIN) + " 10 1q", "base_seed must be"},
  };
  for (const auto& [cmd, diagnostic] : runs) {
    const auto [code, out] = run_command(cmd);
    EXPECT_EQ(code, 2) << cmd;
    EXPECT_NE(out.find(diagnostic), std::string::npos) << cmd << ": " << out;
  }
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"longer", "22"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name   |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22"), std::string::npos);
}

TEST(TextTable, SeparatorAndShortRows) {
  TextTable t;
  t.header({"a", "b", "c"});
  t.row({"x"});  // short row padded
  t.separator();
  const std::string s = t.render();
  EXPECT_NE(s.find("+"), std::string::npos);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace salsa
