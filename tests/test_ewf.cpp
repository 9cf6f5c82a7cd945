// Golden properties of the reconstructed elliptic wave filter benchmark.
// These pin the canonical census and the scheduling envelope this
// repository's Table 2 reproduction is built on (see DESIGN.md for the
// reconstruction note).
#include <gtest/gtest.h>

#include "bench_suite/ewf.h"
#include "cdfg/eval.h"
#include "core/lifetime.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"
#include "util/rng.h"

namespace salsa {
namespace {

TEST(Ewf, CanonicalOperationCensus) {
  Cdfg g = make_ewf();
  EXPECT_EQ(g.count(OpKind::kAdd), 26);
  EXPECT_EQ(g.count(OpKind::kMul), 8);
  EXPECT_EQ(g.count(OpKind::kSub), 0);
  EXPECT_EQ(static_cast<int>(g.operations().size()), 34);
  EXPECT_EQ(g.state_nodes().size(), 7u);
  EXPECT_EQ(g.input_nodes().size(), 1u);
  EXPECT_EQ(g.output_nodes().size(), 1u);
}

TEST(Ewf, AllMultipliersHaveConstantCoefficients) {
  Cdfg g = make_ewf();
  for (NodeId n : g.operations()) {
    if (g.node(n).kind != OpKind::kMul) continue;
    EXPECT_TRUE(g.is_const_value(g.node(n).ins[1]))
        << "EWF multiplies data by filter coefficients only";
  }
}

TEST(Ewf, CriticalPathIs17StepsBothPipelinings) {
  Cdfg g = make_ewf();
  HwSpec np, p;
  p.pipelined_mul = true;
  EXPECT_EQ(min_schedule_length(g, np), 17);
  EXPECT_EQ(min_schedule_length(g, p), 17);
}

TEST(Ewf, FuEnvelopeAtTableLengths) {
  // The measured envelope of this reconstruction (Table 2 of
  // EXPERIMENTS.md). Pinned so a change to the graph or the schedulers is
  // visible immediately.
  Cdfg g = make_ewf();
  HwSpec np, p;
  p.pipelined_mul = true;
  {
    auto r = schedule_min_fu(g, np, 17);
    EXPECT_EQ(r.fus.alu, 3);
    EXPECT_EQ(r.fus.mul, 2);
  }
  {
    auto r = schedule_min_fu(g, p, 17);
    EXPECT_EQ(r.fus.alu, 3);
    EXPECT_EQ(r.fus.mul, 1);
  }
  {
    auto r = schedule_min_fu(g, np, 19);
    EXPECT_LE(r.fus.alu, 2);
    EXPECT_LE(r.fus.mul, 2);
  }
  {
    auto r = schedule_min_fu(g, np, 21);
    EXPECT_LE(r.fus.alu, 2);
    EXPECT_LE(r.fus.mul, 1);
  }
}

TEST(Ewf, RegisterDemandEnvelope) {
  Cdfg g = make_ewf();
  HwSpec hw;
  for (int L : {17, 19, 21}) {
    Schedule s = schedule_min_fu(g, hw, L).schedule;
    Lifetimes lt(s);
    EXPECT_GE(lt.min_registers(), 10) << "L=" << L;
    EXPECT_LE(lt.min_registers(), 14) << "L=" << L;
    EXPECT_EQ(lt.num_storages(), 35) << "L=" << L;
  }
}

TEST(Ewf, BehavesAsALinearFilter) {
  // Linearity: the response to a+b equals response(a) + response(b) when
  // states superpose (all ops are adds and constant multiplies). The
  // evaluator wraps modulo 2^64 and the responses grow past int64_t, so
  // the expected sum uses the evaluator's own wrapping add.
  Cdfg g = make_ewf();
  Evaluator e1(g), e2(g), e12(g);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const int64_t a = static_cast<int64_t>(rng.next() % 200) - 100;
    const int64_t b = static_cast<int64_t>(rng.next() % 200) - 100;
    const int64_t in1[] = {a};
    const int64_t in2[] = {b};
    const int64_t in12[] = {a + b};
    const auto y1 = e1.step(in1);
    const auto y2 = e2.step(in2);
    const auto y12 = e12.step(in12);
    EXPECT_EQ(y12[0], apply_op(OpKind::kAdd, y1[0], y2[0]))
        << "iteration " << i;
  }
}

TEST(Ewf, ImpulseResponseIsNonTrivialAndStableUnderZeroInput) {
  Cdfg g = make_ewf();
  Evaluator ev(g);
  const int64_t impulse[] = {1};
  const int64_t zero[] = {0};
  const auto first = ev.step(impulse);
  EXPECT_NE(first[0] | static_cast<int64_t>(ev.states()[0]), 0)
      << "impulse must excite the filter";
  bool any_nonzero_later = false;
  for (int i = 0; i < 6; ++i) {
    const auto y = ev.step(zero);
    any_nonzero_later |= y[0] != 0;
  }
  EXPECT_TRUE(any_nonzero_later) << "states must propagate the impulse";
}

TEST(Ewf, EveryStateIsReadBeforeRewrite) {
  Cdfg g = make_ewf();
  HwSpec hw;
  Schedule s = schedule_min_fu(g, hw, 17).schedule;
  for (NodeId sn : g.state_nodes()) {
    const Node& st = g.node(sn);
    EXPECT_LT(s.value_last_read(st.out), s.value_ready(st.state_next));
  }
}

}  // namespace
}  // namespace salsa
