// The engine-pair differential harness: the compiled static-slot simulator
// (datapath/event_sim.h) must match the full-evaluation reference
// (datapath/simulator.h) signal-for-signal and cycle-for-cycle — identical
// output streams, identical per-step register traces, byte-identical VCD
// dumps — on the 1992 benchmarks, random CDFGs, and generated corpus
// designs. The mutation test proves the harness has teeth: a single lost
// register update must surface as a divergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "bench_suite/random_cdfg.h"
#include "core/allocator.h"
#include "core/moves.h"
#include "core/verify.h"
#include "datapath/event_sim.h"
#include "datapath/vcd.h"
#include "frontend/generate.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

struct Ctx {
  std::unique_ptr<Cdfg> g;
  std::unique_ptr<Schedule> sched;
  std::unique_ptr<AllocProblem> prob;

  Ctx(Cdfg graph, int extra_len, bool pipelined, int extra_regs) {
    g = std::make_unique<Cdfg>(std::move(graph));
    HwSpec hw;
    hw.pipelined_mul = pipelined;
    const int len = min_schedule_length(*g, hw) + extra_len;
    sched = std::make_unique<Schedule>(schedule_min_fu(*g, hw, len).schedule);
    prob = std::make_unique<AllocProblem>(
        *sched, FuPool::standard(peak_fu_demand(*sched)),
        Lifetimes(*sched).min_registers() + extra_regs);
  }
};

std::vector<std::vector<int64_t>> seeded_inputs(const Cdfg& g, int iterations,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> inputs(
      static_cast<size_t>(iterations) + 1,
      std::vector<int64_t>(g.input_nodes().size(), 0));
  for (auto& vec : inputs)
    for (auto& v : vec) v = static_cast<int64_t>(rng.next() % 2001) - 1000;
  return inputs;
}

// ---------------------------------------------------------------------------
// Benchmarks: per-cycle equivalence plus byte-identical VCD under several
// schedule/register configurations and through move scrambles.
struct EngineCase {
  const char* name;
  Cdfg (*make)();
  int extra_len;
  bool pipelined;
  int extra_regs;
};

class EnginesAgree : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EnginesAgree, OnInitialAllocation) {
  const EngineCase& c = GetParam();
  Ctx ctx(c.make(), c.extra_len, c.pipelined, c.extra_regs);
  Binding b = initial_allocation(*ctx.prob);
  Netlist nl(b);
  EXPECT_EQ(random_engine_diff(nl, 6, 99), "");
}

TEST_P(EnginesAgree, AfterRandomMoveScramble) {
  const EngineCase& c = GetParam();
  Ctx ctx(c.make(), c.extra_len, c.pipelined, c.extra_regs);
  Binding b = initial_allocation(*ctx.prob);
  Rng rng(c.extra_len * 37 + c.extra_regs + 5);
  const MoveConfig all = MoveConfig::salsa_default();
  for (int i = 0; i < 600; ++i) apply_random_move(b, all.pick(rng), rng);
  ASSERT_TRUE(verify(b).empty());
  Netlist nl(b);
  EXPECT_EQ(random_engine_diff(nl, 6, 7), "");
}

TEST_P(EnginesAgree, VcdDumpsAreByteIdentical) {
  const EngineCase& c = GetParam();
  Ctx ctx(c.make(), c.extra_len, c.pipelined, c.extra_regs);
  Binding b = initial_allocation(*ctx.prob);
  Netlist nl(b);
  const auto inputs = seeded_inputs(*ctx.g, 5, 42);
  const std::vector<int64_t> states(ctx.g->state_nodes().size(), 3);
  const std::string full =
      dump_vcd(nl, inputs, states, 5, c.name, SimEngine::kFullEval);
  const std::string event =
      dump_vcd(nl, inputs, states, 5, c.name, SimEngine::kEventDriven);
  EXPECT_EQ(full, event);
}

INSTANTIATE_TEST_SUITE_P(
    Benches, EnginesAgree,
    ::testing::Values(EngineCase{"ewf_min", make_ewf, 0, false, 1},
                      EngineCase{"ewf_loose", make_ewf, 2, false, 2},
                      EngineCase{"ewf_pipe", make_ewf, 0, true, 2},
                      EngineCase{"dct_min", make_dct, 0, false, 1},
                      EngineCase{"dct_loose", make_dct, 3, false, 2},
                      EngineCase{"dct_pipe", make_dct, 3, true, 1}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Property test: >= 20 random CDFGs through schedule variation and move
// scrambles; the engines must agree on outputs and full register traces.
class RandomCdfgEnginesAgree : public ::testing::TestWithParam<int> {};

TEST_P(RandomCdfgEnginesAgree, HoldsThroughScramble) {
  RandomCdfgParams params;
  params.seed = static_cast<uint64_t>(GetParam());
  params.num_ops = 12 + GetParam() % 9;
  params.num_states = GetParam() % 3;
  params.num_inputs = 1 + GetParam() % 3;
  Cdfg g = make_random_cdfg(params);
  HwSpec hw;
  hw.pipelined_mul = GetParam() % 2 == 0;
  const int len = min_schedule_length(g, hw) + GetParam() % 4;
  Schedule sched = schedule_min_fu(g, hw, len).schedule;
  AllocProblem prob(sched, FuPool::standard(peak_fu_demand(sched)),
                    Lifetimes(sched).min_registers() + 2);
  Binding b = initial_allocation(prob, InitialOptions{.seed = params.seed});
  Rng rng(params.seed * 11 + 3);
  const MoveConfig all = MoveConfig::salsa_default();
  for (int i = 0; i < 300; ++i) apply_random_move(b, all.pick(rng), rng);
  ASSERT_TRUE(verify(b).empty());
  Netlist nl(b);
  EXPECT_EQ(random_engine_diff(nl, 5, params.seed), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCdfgEnginesAgree,
                         ::testing::Range(1, 25));

// ---------------------------------------------------------------------------
// Generated corpus designs (the sizes the event engine exists for), one per
// family, sized so the full-eval reference still finishes quickly.
class GeneratedEnginesAgree : public ::testing::TestWithParam<GenFamily> {};

TEST_P(GeneratedEnginesAgree, OnInitialAllocation) {
  GenParams p;
  p.family = GetParam();
  p.target_ops = 300;
  p.seed = 5;
  const GeneratedDesign d = generate_design(p);
  Binding b = initial_allocation(*d.problem);
  Netlist nl(b);
  EXPECT_EQ(random_engine_diff(nl, 3, 17), "");
}

INSTANTIATE_TEST_SUITE_P(Families, GeneratedEnginesAgree,
                         ::testing::Values(GenFamily::kFilterCascade,
                                           GenFamily::kGemmPipeline,
                                           GenFamily::kLayeredDag,
                                           GenFamily::kMemoryTraffic),
                         [](const auto& info) {
                           return std::string(gen_family_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Activity accounting. The binding is statically scheduled, so the compiled
// engine executes every lowered entry once per period: firings are exactly
// slots x iterations, with no data-dependent skipping to get wrong.
TEST(EventEngine, FiringsEqualSlotsTimesIterations) {
  // Tiny stateless chain: m = a*3; s = m+a; output s.
  Cdfg g("tiny");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(3);
  const ValueId m = g.add_op(OpKind::kMul, a, c, "m");
  const ValueId s = g.add_op(OpKind::kAdd, m, a, "s");
  g.add_output(s, "o");
  g.validate();
  HwSpec hw;
  Schedule sched = schedule_min_fu(g, hw, min_schedule_length(g, hw)).schedule;
  AllocProblem prob(sched, FuPool::standard(peak_fu_demand(sched)),
                    Lifetimes(sched).min_registers());
  Binding b = initial_allocation(prob);
  Netlist nl(b);

  const int iterations = 50;
  std::vector<std::vector<int64_t>> inputs(
      static_cast<size_t>(iterations) + 1,
      std::vector<int64_t>(g.input_nodes().size(), 7));
  const std::vector<int64_t> states;
  EventSimStats stats;
  const SimResult ev =
      simulate_events(nl, inputs, states, iterations, nullptr, &stats);
  const SimResult full = simulate(nl, inputs, states, iterations);
  ASSERT_EQ(ev.outputs, full.outputs);
  ASSERT_GT(stats.slots, 0);
  EXPECT_EQ(stats.firings, stats.slots * static_cast<long>(iterations));
}

// ---------------------------------------------------------------------------
// Mutation: a lost register update — the Nth register-load apply that would
// change its register is dropped — must produce a divergence the
// differential harness reports at every probed position, and each armed
// hook must actually fire (a leftover armed hook proves nothing was tested).
TEST(EventEngine, LostRegisterUpdateIsCaught) {
  Ctx ctx(make_ewf(), 0, false, 1);
  Binding b = initial_allocation(*ctx.prob);
  Netlist nl(b);
  ASSERT_EQ(random_engine_diff(nl, 6, 99), "");

  // Count the run's changing loads with an arm too far out to fire.
  const long base = event_sim_hooks::load_count;
  event_sim_hooks::drop_load_after = base + (1L << 40);
  ASSERT_EQ(random_engine_diff(nl, 6, 99), "");
  event_sim_hooks::drop_load_after = 0;
  const long changing = event_sim_hooks::load_count - base;
  ASSERT_GE(changing, 10);

  // Probe positions spread across the whole run.
  for (long n = 1; n <= changing; n += std::max(1L, (changing - 1) / 10)) {
    event_sim_hooks::drop_load_after = event_sim_hooks::load_count + n;
    const std::string diff = random_engine_diff(nl, 6, 99);
    const bool fired = event_sim_hooks::drop_load_after == 0;
    event_sim_hooks::drop_load_after = 0;
    ASSERT_TRUE(fired) << "mutation hook never fired at position " << n;
    EXPECT_NE(diff, "") << "lost register update " << n << " went undetected";
  }
}

}  // namespace
}  // namespace salsa
