// Tests of the flow benchmark's own rules: the tail statistic, failure
// counting, metric-name validation, and the traced decomposition of
// allocate() (its reproduction of the facade and its mismatch path).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/digest.h"
#include "bench_suite/ewf.h"
#include "bench_suite/random_cdfg.h"
#include "core/lifetime.h"
#include "flows.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"
#include "stats.h"
#include "trace.h"

namespace flowbench {
namespace {

std::vector<double> descending(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

TEST(TailPercentile, HighestLadderStepWithTenSamplesBeyond) {
  struct Case {
    int n;
    double percentile;
    double value;  // samples are 1..n
    int beyond;
  };
  for (const Case c : {Case{20, 50, 10, 10}, Case{24, 50, 12, 12},
                       Case{39, 50, 20, 19}, Case{40, 75, 30, 10},
                       Case{100, 90, 90, 10}, Case{199, 90, 180, 19},
                       Case{200, 95, 190, 10}, Case{1000, 95, 950, 50}}) {
    const Tail t = tail_percentile(descending(c.n));
    EXPECT_TRUE(t.supported) << c.n;
    EXPECT_EQ(t.percentile, c.percentile) << c.n;
    EXPECT_EQ(t.value, c.value) << c.n;
    EXPECT_EQ(t.beyond, c.beyond) << c.n;
    EXPECT_EQ(t.n, c.n);
  }
}

TEST(TailPercentile, CapKeepsTheRungWhenSamplesGrow) {
  for (const int n : {40, 100, 1000}) {
    const Tail t = tail_percentile(descending(n), 75);
    EXPECT_EQ(t.percentile, 75) << n;
    EXPECT_EQ(t.value, static_cast<double>((3 * n + 3) / 4)) << n;
  }
  // Below the cap's support the ladder falls back to lower rungs.
  const Tail few = tail_percentile(descending(30), 75);
  EXPECT_EQ(few.percentile, 50);
  EXPECT_TRUE(few.supported);
}

TEST(TailPercentile, SmallSamplesReportTheMaximumUnsupported) {
  for (int n : {1, 2, 10, 11, 19}) {
    const Tail t = tail_percentile(descending(n));
    EXPECT_FALSE(t.supported) << n;
    EXPECT_EQ(t.beyond, 0) << n;
    EXPECT_EQ(t.value, static_cast<double>(n)) << n;
    EXPECT_EQ(t.percentile, 100.0) << n;
  }
  const Tail empty = tail_percentile({});
  EXPECT_FALSE(empty.supported);
  EXPECT_EQ(empty.n, 0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(FlowCounter, CountsThrownFlowsAsFailed) {
  FlowCounter c;
  EXPECT_EQ(c.run([] { return std::string(); }), "");
  EXPECT_EQ(c.run([] { return std::string("sim mismatch"); }), "sim mismatch");
  const std::string thrown =
      c.run([]() -> std::string { throw std::runtime_error("no placement"); });
  EXPECT_NE(thrown.find("no placement"), std::string::npos);
  EXPECT_FALSE(c.run([]() -> std::string { throw 7; }).empty());
  EXPECT_EQ(c.attempted(), 4);
  EXPECT_EQ(c.failed(), 3);
  EXPECT_DOUBLE_EQ(c.failed_frac(), 0.75);
  EXPECT_EQ(FlowCounter().failed_frac(), 0.0);
}

TEST(MetricNames, LettersDigitsUnderscoreDotDash) {
  for (const char* ok : {"flow_ms.p50", "core.kind.F1.attempted", "setup_s",
                         "a", "9lives", "x-y"})
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  for (const char* bad : {"", ".p50", "_x", "-x", "a b", "a/b", "p50%",
                          "caf\xc3\xa9", "a\"b"})
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
}

TEST(ResultJson, RefusesBadMetrics) {
  const std::string line =
      result_json(true, 3, 0, {{"flows_per_s", 2.5, "1/s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"flows_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}}}");
  EXPECT_THROW(result_json(true, 1, 0, {{"bad name", 1, "ms"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1, "ms"}, {"a", 2, "ms"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1, "m s"}}),
               std::invalid_argument);
  EXPECT_THROW(
      result_json(true, 1, 0,
                  {{"a", std::numeric_limits<double>::quiet_NaN(), "ms"}}),
      std::invalid_argument);
}

TEST(Tracer, SelfTimeExcludesChildrenAndCoverageCountsThem) {
  Tracer t;
  t.new_flow(false);
  { ScopedSpan setup(&t, "frontend.generate"); }
  t.new_flow(true);
  {
    ScopedSpan root(&t, "flow");
    ScopedSpan a(&t, "core.allocate");
    { ScopedSpan b(&t, "core.initial"); }
  }
  const auto all = t.totals(false);
  const auto timed = t.totals(true);
  EXPECT_EQ(all.count("frontend.generate"), 1u);
  EXPECT_EQ(timed.count("frontend.generate"), 0u);
  const LayerTotal& facade = all.at("core.allocate");
  EXPECT_NEAR(facade.self_ms, facade.total_ms - all.at("core.initial").total_ms,
              1e-9);
  const std::vector<double> cov = t.flow_coverage();
  ASSERT_EQ(cov.size(), 1u);
  EXPECT_LE(cov[0], 1.0);
  ScopedSpan open(&t, "flow");
  EXPECT_THROW(t.new_flow(true), std::logic_error);
}

// A small allocation problem and the objects it refers into.
struct Problem {
  explicit Problem(salsa::Cdfg graph) : g(std::move(graph)) {
    const salsa::HwSpec hw;
    sched.emplace(salsa::schedule_min_fu(g, hw, salsa::min_schedule_length(g, hw),
                                         1.0, 4.0, salsa::Parallelism{1})
                      .schedule);
    const salsa::Lifetimes lt(*sched);
    prob = std::make_unique<salsa::AllocProblem>(
        *sched, salsa::FuPool::standard(salsa::peak_fu_demand(*sched)),
        lt.min_registers() + 1);
  }
  salsa::Cdfg g;
  std::optional<salsa::Schedule> sched;
  std::unique_ptr<salsa::AllocProblem> prob;
};

TEST(Decomposition, ReproducesAllocate) {
  salsa::RandomCdfgParams rp;
  rp.num_ops = 24;
  rp.seed = 3;
  for (salsa::Cdfg g : {salsa::make_ewf(), salsa::make_random_cdfg(rp)}) {
    Problem p(std::move(g));
    const salsa::AllocatorOptions opts = pinned_options();
    const salsa::AllocationResult ref = salsa::allocate(*p.prob, opts);
    Tracer t;
    t.new_flow(true);
    const salsa::AllocationResult dec = allocate_traced(*p.prob, opts, t);
    EXPECT_EQ(salsa::digest_binding(dec.binding),
              salsa::digest_binding(ref.binding));
    EXPECT_EQ(dec.merging.muxes_after, ref.merging.muxes_after);
    EXPECT_TRUE(dec.stats == ref.stats);
    EXPECT_EQ(check_allocation(dec), "");
    EXPECT_GE(t.counter("core.initial.calls"), 1.0);
    EXPECT_EQ(t.counter("core.moves.attempted"),
              static_cast<double>(ref.stats.attempted));
  }
}

TEST(Decomposition, MismatchMarksSpansStaleWithoutFailingTheRun) {
  Problem p(salsa::make_ewf());
  Tracer t;
  FlowCounter counter;
  int flow = -1;
  bool matched = true;
  const std::string err = counter.run([&] {
    flow = t.new_flow(true);
    ScopedSpan root(&t, "flow");
    const salsa::AllocationResult res =
        allocate_traced(*p.prob, pinned_options(), t);
    { ScopedSpan n(&t, "datapath.netlist"); }
    // A reference digest the decomposition cannot reproduce, as after a
    // change to allocate()'s internals.
    const uint64_t reference = salsa::digest_binding(res.binding) ^ 1u;
    matched =
        reconcile_decomposition(t, flow, salsa::digest_binding(res.binding),
                                reference);
    return std::string();
  });
  EXPECT_EQ(err, "");
  EXPECT_FALSE(matched);
  EXPECT_EQ(counter.failed(), 0);
  for (const Span& s : t.spans()) {
    const std::string name = s.name;
    const bool sub_span = name.rfind("core.", 0) == 0 && name != "core.allocate";
    EXPECT_EQ(s.stale, sub_span) << name;
  }
  EXPECT_GT(t.totals(true).at("core.search.main").stale, 0);
  EXPECT_TRUE(reconcile_decomposition(t, flow, 42, 42));
}

TEST(Environment, OverridesAreReportedAndOptionsPinned) {
  ::unsetenv("SALSA_THREADS");
  ::unsetenv("SALSA_CHECK");
  ::unsetenv("SALSA_SPECULATION");
  ::unsetenv("SALSA_RESTART_PATIENCE");
  EXPECT_TRUE(environment_overrides().empty());
  ::setenv("SALSA_SPECULATION", "4", 1);
  EXPECT_EQ(environment_overrides(),
            std::vector<std::string>{"SALSA_SPECULATION"});
  ::unsetenv("SALSA_SPECULATION");

  const salsa::AllocatorOptions o = pinned_options();
  EXPECT_EQ(o.parallelism.threads, 1);
  EXPECT_EQ(o.checked, salsa::CheckMode::kFinal);
  EXPECT_LT(o.restart_patience, 0);
  EXPECT_EQ(o.restarts, 1);
}

TEST(Workloads, SetupIsSeededAndFlowsPassTheirChecks) {
  for (const std::string& name : workload_names()) {
    auto a = make_workload(name);
    auto b = make_workload(name);
    ASSERT_TRUE(a && b) << name;
    a->setup(7, nullptr);
    b->setup(7, nullptr);
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) EXPECT_EQ(a->label(i), b->label(i));
    if (name == "large-flow") continue;  // seconds per flow
    const FlowOutput out = a->run(0, nullptr);
    EXPECT_EQ(out.error, "") << name;
    EXPECT_EQ(out.digest, b->run(0, nullptr).digest) << name;
  }
  EXPECT_EQ(make_workload("no-such-workload"), nullptr);
}

}  // namespace
}  // namespace flowbench
