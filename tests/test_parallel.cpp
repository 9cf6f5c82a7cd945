// Parallel search runtime (util/thread_pool.h): the determinism contract —
// results are byte-identical for every thread count — plus the thread-pool
// mechanics (index coverage, ordered results, exception propagation, nested
// submission) and the SplitMix64 seed-stream derivation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/ewf.h"
#include "bench_suite/random_cdfg.h"
#include "core/allocator.h"
#include "core/sched_explore.h"
#include "core/verify.h"
#include "sched/fu_search.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace salsa {
namespace {

// ---------------------------------------------------------------- pool ----

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    const int n = 500;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(Parallelism{threads}, n,
                 [&](int i) { hits[static_cast<size_t>(i)]++; });
    for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)], 1);
  }
}

TEST(ThreadPool, MapKeepsIndexOrder) {
  for (int threads : {1, 3, 8}) {
    const auto out =
        parallel_map(Parallelism{threads}, 100, [](int i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (int i = 0; i < 100; ++i)
      EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
  }
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  for (int threads : {1, 4}) {
    std::atomic<int> ran{0};
    try {
      parallel_for(Parallelism{threads}, 64, [&](int i) {
        ran++;
        if (i == 7 || i == 50) throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 7");
    }
    // A failing sibling never cancels other indices.
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(ThreadPool, NestedSubmissionCompletes) {
  // An index that itself fans out: forward progress must not depend on free
  // workers (the inner caller drains its own batch).
  for (int threads : {1, 2, 8}) {
    std::atomic<long> sum{0};
    parallel_for(Parallelism{threads}, 8, [&](int i) {
      parallel_for(Parallelism{threads}, 8,
                   [&](int j) { sum += i * 8 + j; });
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(ThreadPool, ZeroAndOneIndexWork) {
  parallel_for(Parallelism{4}, 0, [](int) { FAIL(); });
  int hits = 0;
  parallel_for(Parallelism{4}, 1, [&](int) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPool, ParallelismResolvesToAtLeastOne) {
  EXPECT_GE(Parallelism{}.resolve(), 1);
  EXPECT_EQ(Parallelism{3}.resolve(), 3);
  EXPECT_TRUE(Parallelism::sequential_only().sequential());
  EXPECT_GE(default_thread_count(), 1);
}

TEST(ThreadPool, SalsaThreadsIsValidated) {
  // Resolves thread counts only — no pool is started.
  const char* prev = std::getenv("SALSA_THREADS");
  const std::string saved = prev != nullptr ? prev : "";
  for (const char* bad : {"abc", "4x", "0", "-2", "", " 3", "1025"}) {
    ::setenv("SALSA_THREADS", bad, 1);
    EXPECT_THROW(default_thread_count(), Error) << "'" << bad << "'";
    EXPECT_THROW(Parallelism{}.resolve(), Error) << "'" << bad << "'";
    EXPECT_EQ(Parallelism{2}.resolve(), 2);  // explicit counts never read it
  }
  ::setenv("SALSA_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3);
  EXPECT_EQ(Parallelism{}.resolve(), 3);
  if (prev != nullptr) {
    ::setenv("SALSA_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("SALSA_THREADS");
  }
}

// ---------------------------------------------------------- seed streams ----

TEST(SeedStreams, NearbyBasesAndStreamsDoNotCollide) {
  // The additive scheme this replaced (seed + r*7919) collides whenever two
  // user seeds differ by a multiple of the stride; the SplitMix64 streams
  // must keep a dense grid of nearby bases and small stream indices
  // pairwise distinct.
  std::set<uint64_t> seen;
  int count = 0;
  for (uint64_t base = 0; base < 64; ++base) {
    for (uint64_t stream = 0; stream < 64; ++stream) {
      seen.insert(derive_seed(base, stream));
      ++count;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), count);
}

TEST(SeedStreams, DerivationIsAPureFunction) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

// ------------------------------------------------------------ allocate ----

struct Ctx {
  std::unique_ptr<Cdfg> g;
  std::unique_ptr<Schedule> sched;
  std::unique_ptr<AllocProblem> prob;

  Ctx(Cdfg graph, int len, int extra_regs) {
    g = std::make_unique<Cdfg>(std::move(graph));
    HwSpec hw;
    sched = std::make_unique<Schedule>(schedule_min_fu(*g, hw, len).schedule);
    prob = std::make_unique<AllocProblem>(
        *sched, FuPool::standard(peak_fu_demand(*sched)),
        Lifetimes(*sched).min_registers() + extra_regs);
  }
};

AllocatorOptions restart_opts(int threads) {
  AllocatorOptions opts;
  opts.improve.max_trials = 4;
  opts.improve.moves_per_trial = 700;
  opts.improve.seed = 5;
  opts.initial.seed = 5;
  opts.restarts = 6;
  opts.parallelism.threads = threads;
  return opts;
}

void expect_identical(const AllocationResult& a, const AllocationResult& b) {
  EXPECT_EQ(a.binding, b.binding);
  EXPECT_EQ(a.cost.total, b.cost.total);  // exact, not approximate
  EXPECT_EQ(a.cost.muxes, b.cost.muxes);
  EXPECT_EQ(a.cost.connections, b.cost.connections);
  EXPECT_EQ(a.merging.muxes_after, b.merging.muxes_after);
  EXPECT_TRUE(a.stats == b.stats);
}

TEST(ParallelAllocate, EwfByteIdenticalAcrossThreadCounts) {
  Ctx ctx(make_ewf(), 17, 1);
  const AllocationResult ref = allocate(*ctx.prob, restart_opts(1));
  EXPECT_TRUE(verify(ref.binding).empty());
  for (int threads : {2, 8}) {
    const AllocationResult res = allocate(*ctx.prob, restart_opts(threads));
    expect_identical(ref, res);
  }
}

TEST(ParallelAllocate, RandomCdfgByteIdenticalAcrossThreadCounts) {
  RandomCdfgParams p;
  p.num_ops = 16;
  p.seed = 9;
  Ctx ctx(make_random_cdfg(p), 8, 1);
  const AllocationResult ref = allocate(*ctx.prob, restart_opts(1));
  for (int threads : {2, 8}) {
    const AllocationResult res = allocate(*ctx.prob, restart_opts(threads));
    expect_identical(ref, res);
  }
}

TEST(ParallelAllocate, StatsAccumulateAllRestarts) {
  Ctx ctx(make_ewf(), 17, 1);
  const AllocationResult res = allocate(*ctx.prob, restart_opts(8));
  EXPECT_GE(res.stats.trials, restart_opts(8).restarts);
}

TEST(ParallelAllocate, SingleRestartMatchesRestartZeroOfMany) {
  // The restart-0 seed stream must not depend on how many restarts run:
  // more restarts can only improve the result, never change its baseline.
  Ctx ctx(make_ewf(), 17, 1);
  AllocatorOptions one = restart_opts(4);
  one.restarts = 1;
  const double c1 = allocate(*ctx.prob, one).cost.total;
  const double c6 = allocate(*ctx.prob, restart_opts(4)).cost.total;
  EXPECT_LE(c6, c1);
}

TEST(ParallelAllocate, RestartPatienceOffByDefault) {
  // No SALSA_RESTART_PATIENCE in the test environment → early stopping is
  // disabled unless opted into per call.
  EXPECT_EQ(default_restart_patience(), 0);
}

TEST(ParallelAllocate, RestartPatienceMatchesTruncatedRun) {
  // With patience p the run must behave exactly like a patience-off run
  // over the retained restart prefix: same winner, same digests, same
  // stats. restart_digests doubles as the observable stop index.
  Ctx ctx(make_ewf(), 17, 1);
  AllocatorOptions early = restart_opts(1);
  early.restarts = 8;
  early.restart_patience = 1;
  std::vector<uint64_t> digests;
  early.restart_digests = &digests;
  const AllocationResult res = allocate(*ctx.prob, early);
  ASSERT_GE(digests.size(), 2u);  // at least patience + 1 restarts run
  ASSERT_LE(digests.size(), 8u);

  AllocatorOptions exact = early;
  exact.restart_patience = -1;  // force off, even if the env sets a default
  exact.restarts = static_cast<int>(digests.size());
  std::vector<uint64_t> exact_digests;
  exact.restart_digests = &exact_digests;
  expect_identical(allocate(*ctx.prob, exact), res);
  EXPECT_EQ(exact_digests, digests);
}

TEST(ParallelAllocate, RestartPatienceByteIdenticalAcrossThreadCounts) {
  // The wave width varies with the thread count; the retained prefix (and
  // so the result) must not.
  Ctx ctx(make_ewf(), 17, 1);
  auto run = [&](int threads) {
    AllocatorOptions o = restart_opts(threads);
    o.restarts = 8;
    o.restart_patience = 2;
    return allocate(*ctx.prob, o);
  };
  const AllocationResult ref = run(1);
  for (int threads : {2, 8}) expect_identical(ref, run(threads));
}

// ---------------------------------------------------- explore_schedules ----

ScheduleExploreParams explore_opts(int threads) {
  ScheduleExploreParams p;
  p.variants = 4;
  p.alloc.improve.max_trials = 3;
  p.alloc.improve.moves_per_trial = 500;
  p.seed = 2;
  p.parallelism.threads = threads;
  return p;
}

TEST(ParallelExplore, ByteIdenticalAcrossThreadCounts) {
  Cdfg g = make_ewf();
  HwSpec hw;
  const FuBudget budget = schedule_min_fu(g, hw, 17).fus;
  const ScheduleExploreResult ref =
      explore_schedules(g, hw, 17, budget, explore_opts(1));
  ASSERT_TRUE(ref.allocation.has_value());
  for (int threads : {2, 8}) {
    const ScheduleExploreResult res =
        explore_schedules(g, hw, 17, budget, explore_opts(threads));
    ASSERT_TRUE(res.allocation.has_value());
    ASSERT_EQ(res.variant_costs.size(), ref.variant_costs.size());
    for (size_t i = 0; i < ref.variant_costs.size(); ++i) {
      EXPECT_EQ(res.variant_costs[i], ref.variant_costs[i]);
      EXPECT_TRUE(res.variant_stats[i] == ref.variant_stats[i]);
    }
    EXPECT_EQ(res.allocation->cost.total, ref.allocation->cost.total);
    EXPECT_EQ(res.allocation->cost.muxes, ref.allocation->cost.muxes);
    // The winning schedules must agree op for op (Binding::operator==
    // cannot compare across distinct AllocProblem instances).
    for (NodeId n : g.operations())
      EXPECT_EQ(res.schedule->start(n), ref.schedule->start(n));
  }
}

TEST(ParallelExplore, NestedParallelismStaysDeterministic) {
  // Variants in parallel, each allocating restarts in parallel — the
  // composed fan-out must still match the fully sequential run.
  Cdfg g = make_ewf();
  HwSpec hw;
  const FuBudget budget = schedule_min_fu(g, hw, 17).fus;
  ScheduleExploreParams seq = explore_opts(1);
  seq.alloc.restarts = 2;
  seq.alloc.parallelism.threads = 1;
  ScheduleExploreParams par = explore_opts(4);
  par.alloc.restarts = 2;
  par.alloc.parallelism.threads = 4;
  const ScheduleExploreResult a = explore_schedules(g, hw, 17, budget, seq);
  const ScheduleExploreResult b = explore_schedules(g, hw, 17, budget, par);
  ASSERT_TRUE(a.allocation && b.allocation);
  EXPECT_EQ(a.allocation->cost.total, b.allocation->cost.total);
  EXPECT_EQ(a.variant_costs, b.variant_costs);
}

// ---------------------------------------------------------- fu search ----

TEST(ParallelFuSearch, EnvelopeIndependentOfThreadCount) {
  Cdfg g = make_ewf();
  HwSpec hw;
  const FuSearchResult ref = schedule_min_fu(g, hw, 19, 1.0, 4.0,
                                             Parallelism{1});
  for (int threads : {2, 8}) {
    const FuSearchResult res = schedule_min_fu(g, hw, 19, 1.0, 4.0,
                                               Parallelism{threads});
    EXPECT_EQ(res.fus.alu, ref.fus.alu);
    EXPECT_EQ(res.fus.mul, ref.fus.mul);
    for (NodeId n : g.operations())
      EXPECT_EQ(res.schedule.start(n), ref.schedule.start(n));
  }
}

}  // namespace
}  // namespace salsa
