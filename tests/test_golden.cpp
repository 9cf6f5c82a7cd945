// Deterministic end-to-end pins: the RNG is fully portable (xoshiro256**),
// so fixed seeds give bit-identical searches on every platform. These tests
// freeze a few complete flow results; a change here means an intentional
// algorithm change (update the constants) or an accidental regression.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>

#include "analysis/digest.h"
#include "baseline/traditional.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "core/allocator.h"
#include "core/annealer.h"
#include "core/ils.h"
#include "datapath/vcd.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

struct Ctx {
  std::unique_ptr<Cdfg> g;
  std::unique_ptr<Schedule> sched;
  std::unique_ptr<AllocProblem> prob;

  Ctx(Cdfg graph, int len, bool pipelined, int extra_regs) {
    g = std::make_unique<Cdfg>(std::move(graph));
    HwSpec hw;
    hw.pipelined_mul = pipelined;
    sched = std::make_unique<Schedule>(schedule_min_fu(*g, hw, len).schedule);
    prob = std::make_unique<AllocProblem>(
        *sched, FuPool::standard(peak_fu_demand(*sched)),
        Lifetimes(*sched).min_registers() + extra_regs);
  }
};

AllocatorOptions golden_opts(uint64_t seed) {
  AllocatorOptions opts;
  opts.improve.max_trials = 6;
  opts.improve.moves_per_trial = 2000;
  opts.improve.seed = seed;
  opts.initial.seed = seed;
  return opts;
}

TEST(Golden, InitialAllocationCostsArePinned) {
  Ctx ewf(make_ewf(), 17, false, 1);
  Binding b = initial_allocation(*ewf.prob, InitialOptions{.seed = 1});
  const CostBreakdown cost = evaluate_cost(b);
  // Frozen on 2026-07-07; see file header before "fixing" these.
  EXPECT_EQ(cost.muxes, 36);
  EXPECT_EQ(cost.connections, 58);
  EXPECT_EQ(cost.regs_used, 13);
}

TEST(Golden, EwfAllocationIsDeterministic) {
  Ctx ewf(make_ewf(), 17, false, 1);
  const AllocationResult a = allocate(*ewf.prob, golden_opts(3));
  const AllocationResult b = allocate(*ewf.prob, golden_opts(3));
  EXPECT_EQ(a.cost.muxes, b.cost.muxes);
  EXPECT_EQ(a.cost.connections, b.cost.connections);
  EXPECT_DOUBLE_EQ(a.cost.total, b.cost.total);
  EXPECT_EQ(a.merging.muxes_after, b.merging.muxes_after);
}

TEST(Golden, EwfAllocationQualityBand) {
  // Not an exact pin (the band survives parameter tuning): a modest-budget
  // run on ewf@17/min+1 must land in the quality band the full harness
  // reaches, well below the constructive start's 36 muxes.
  Ctx ewf(make_ewf(), 17, false, 1);
  const AllocationResult res = allocate(*ewf.prob, golden_opts(1));
  EXPECT_LE(res.cost.muxes, 24);
  EXPECT_GE(res.cost.muxes, 14);
}

TEST(Golden, TraditionalDeterministicToo) {
  Ctx dct(make_dct(), 9, false, 1);
  TraditionalOptions opts;
  opts.improve.max_trials = 6;
  opts.improve.moves_per_trial = 2000;
  opts.improve.seed = 5;
  const AllocationResult a = allocate_traditional(*dct.prob, opts);
  const AllocationResult b = allocate_traditional(*dct.prob, opts);
  EXPECT_EQ(a.cost.muxes, b.cost.muxes);
  EXPECT_DOUBLE_EQ(a.cost.total, b.cost.total);
}

TEST(Golden, ScheduleEnvelopesArePinned) {
  Cdfg g = make_ewf();
  HwSpec np, p;
  p.pipelined_mul = true;
  struct Row {
    int len;
    bool pipe;
    int alu, mul, minregs;
  };
  // Frozen envelope of the reconstruction (also quoted in EXPERIMENTS.md).
  const Row rows[] = {
      {17, false, 3, 2, 13}, {17, true, 3, 1, 13}, {19, false, 2, 2, 13},
      {19, true, 2, 1, 13},  {21, false, 2, 1, 12},
  };
  for (const Row& r : rows) {
    const auto sr = schedule_min_fu(g, r.pipe ? p : np, r.len);
    EXPECT_EQ(sr.fus.alu, r.alu) << r.len << (r.pipe ? "P" : "");
    EXPECT_EQ(sr.fus.mul, r.mul) << r.len << (r.pipe ? "P" : "");
    EXPECT_EQ(Lifetimes(sr.schedule).min_registers(), r.minregs)
        << r.len << (r.pipe ? "P" : "");
  }
}

// ---------------------------------------------------------------------------
// Exact search trajectories. Each row runs one acceptance policy from a
// fixed constructive start with a fixed seed and a small budget, and pins
// the FNV-1a digest of the best binding plus the per-move-kind
// attempted/accepted counts. Any change to the candidate stream (move-kind
// picks, per-candidate RNG streams), to the engine's cost deltas or to the
// acceptance rules moves at least one of these numbers.
enum class Policy { kImprove, kAnneal, kIls };

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kImprove: return "Policy::kImprove";
    case Policy::kAnneal: return "Policy::kAnneal";
    case Policy::kIls: return "Policy::kIls";
  }
  return "?";
}

ImproveResult run_policy(const Binding& start, Policy p, uint64_t seed) {
  if (p == Policy::kImprove) {
    ImproveParams ip;
    ip.max_trials = 4;
    ip.moves_per_trial = 1500;
    ip.seed = seed;
    return improve(start, ip);
  }
  if (p == Policy::kAnneal) {
    AnnealParams ap;
    ap.num_temps = 6;
    ap.moves_per_temp = 1000;
    ap.seed = seed;
    return anneal(start, ap);
  }
  IlsParams lp;
  lp.iterations = 4;
  lp.descent_moves = 1500;
  lp.seed = seed;
  return iterated_local_search(start, lp);
}

/// Per-kind {attempted, accepted}, in MoveKind order (F1..F5, R1..R7).
using KindCounts = std::array<std::array<long, 2>, kNumMoveKinds>;

TEST(Golden, SearchTrajectoriesArePinned) {
  struct Row {
    const char* design;
    Policy policy;
    uint64_t digest;
    KindCounts by_kind;
  };
  // Frozen on 2026-10-20; see file header before "fixing" these.
  const Row rows[] = {
      {"ewf", Policy::kImprove, 0x0d87737db7871da9ull,
       {{{130, 13}, {369, 26}, {698, 159}, {383, 52}, {177, 51}, {701, 1},
         {709, 16}, {18, 0}, {151, 8}, {348, 28}, {35, 27}, {42, 9}}}},
      {"ewf", Policy::kAnneal, 0x7b9cb2ec2aec0ff9ull,
       {{{186, 150}, {356, 307}, {698, 593}, {378, 293}, {299, 287},
         {699, 512}, {694, 566}, {8, 7}, {109, 91}, {335, 239}, {236, 235},
         {252, 237}}}},
      {"ewf", Policy::kIls, 0x45a6494ac7ffd6aeull,
       {{{166, 11}, {490, 36}, {878, 91}, {552, 39}, {119, 35}, {893, 14},
         {871, 39}, {11, 1}, {203, 36}, {459, 29}, {31, 29}, {39, 17}}}},
      {"dct", Policy::kImprove, 0x3a5c90b6d43a2323ull,
       {{{102, 2}, {375, 20}, {698, 83}, {467, 0}, {0, 0}, {701, 13},
         {710, 49}, {17, 1}, {161, 19}, {349, 39}, {38, 38}, {81, 59}}}},
      {"dct", Policy::kAnneal, 0x019bdb0c1f9965d6ull,
       {{{108, 83}, {309, 260}, {698, 610}, {359, 279}, {286, 273},
         {696, 532}, {667, 573}, {6, 5}, {127, 108}, {334, 239}, {236, 235},
         {313, 296}}}},
      {"dct", Policy::kIls, 0x9ebf0cb040fe1b4aull,
       {{{128, 9}, {458, 32}, {879, 139}, {487, 90}, {88, 88}, {893, 30},
         {868, 94}, {24, 1}, {194, 30}, {461, 46}, {54, 43}, {95, 45}}}},
  };
  Ctx ewf(make_ewf(), 17, false, 1);
  Ctx dct(make_dct(), 9, false, 1);
  for (const Row& row : rows) {
    const Ctx& ctx = std::string(row.design) == "ewf" ? ewf : dct;
    const Binding start =
        initial_allocation(*ctx.prob, InitialOptions{.seed = 1});
    const ImproveResult res = run_policy(start, row.policy, 11);
    KindCounts got{};
    long attempted = 0, accepted = 0;
    for (size_t k = 0; k < got.size(); ++k) {
      got[k] = {res.stats.by_kind[k].attempted, res.stats.by_kind[k].accepted};
      attempted += got[k][0];
      accepted += got[k][1];
    }
    const uint64_t digest = digest_binding(res.best);
    std::ostringstream actual;
    actual << "{\"" << row.design << "\", " << policy_name(row.policy)
           << ", 0x" << std::hex << digest << std::dec << "ull, {{";
    for (size_t k = 0; k < got.size(); ++k)
      actual << (k ? ", " : "") << "{" << got[k][0] << ", " << got[k][1] << "}";
    actual << "}}},";
    const std::string what =
        std::string("actual row: ") + actual.str();
    EXPECT_EQ(digest, row.digest) << what;
    EXPECT_EQ(got, row.by_kind) << what;
    // The per-kind breakdown and the policy's own totals count the same
    // proposals (ILS kicks are accepted moves outside the descent policy).
    EXPECT_EQ(attempted, res.stats.attempted + res.stats.kicks) << what;
    EXPECT_EQ(accepted, res.stats.accepted + res.stats.kicks) << what;
  }
}

// ---------------------------------------------------------------------------
// Golden VCD waveforms under the event-driven engine. The full dump —
// header, signal declarations, every value change of every register, FU
// output and port over five iterations — is pinned as an FNV-1a digest for
// EWF and DCT. Any engine change that perturbs a single waveform bit lands
// here; the differential suite (test_sim_differential) separately pins
// event == full-eval, so these constants freeze BOTH engines at once.
TEST(Golden, EventEngineVcdDigestsArePinned) {
  struct Row {
    const char* name;
    Cdfg (*make)();
    int extra_len;
    uint64_t digest;
  };
  // Frozen on 2026-08-09; see file header before "fixing" these.
  const Row rows[] = {
      {"ewf", make_ewf, 2, 0x4bf52d857dd716d5ull},
      {"dct", make_dct, 2, 0x5afdf582eb5523c2ull},
  };
  for (const Row& row : rows) {
    const int len =
        min_schedule_length(row.make(), HwSpec{}) + row.extra_len;
    Ctx ctx(row.make(), len, false, 1);
    Binding b = initial_allocation(*ctx.prob, InitialOptions{.seed = 1});
    Netlist nl(b);
    Rng rng(2024);
    std::vector<std::vector<int64_t>> inputs(
        6, std::vector<int64_t>(ctx.g->input_nodes().size(), 0));
    for (auto& vec : inputs)
      for (auto& v : vec) v = static_cast<int64_t>(rng.next() % 2001) - 1000;
    const std::vector<int64_t> states(ctx.g->state_nodes().size(), 2);
    const std::string vcd =
        dump_vcd(nl, inputs, states, 5, row.name, SimEngine::kEventDriven);
    Fnv1a h;
    for (char c : vcd) h.byte(static_cast<uint8_t>(c));
    EXPECT_EQ(h.value(), row.digest) << row.name << " actual 0x" << std::hex
                                     << h.value();
  }
}

}  // namespace
}  // namespace salsa
