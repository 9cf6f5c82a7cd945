// How often do the allocator's strict contiguous retries pay off? For every
// problem of three corpora, runs restart 0's constructive start the way
// allocate() does with warm_start_traditional: one initial_allocation with
// splits allowed and, when that call split a storage, up to eight strict
// (no-split) retries under derived seeds, stopping at the first success.
// Reports per corpus and family how many first calls split, how many strict
// retries ran and failed, and how many split problems a retry rescued.
//
// The corpora mirror flowbench's: the five paper designs under latency
// slack 0..4, both multiplier kinds and 0..2 spare registers (paper-flow's
// built-ins take 1..2, Tables 2 and 3 also 0); generated 2.0k-2.9k-op cascade, DAG, GEMM and memory-traffic
// designs (large-flow); and EWF unrolled 4x/8x plus ~300- and ~500-op
// generated designs at two latency budgets (explore). Sizes are drawn per
// seed as flowbench draws them, from seeds 1..4 of this program's own
// streams.
//
// tally_problem() restates allocate()'s strict-retry loop
// (src/core/allocator.cpp: eight attempts under derive_seed(seed,
// 1 + attempt)) and covers restart 0 only. It measures the precondition of
// ROADMAP "Initial allocation B"; the change that replaces that retry loop
// deletes this program instead of keeping a second copy of the old loop.
//
// Usage: bench_initial_retries
#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "bench_suite/fir.h"
#include "core/initial.h"
#include "core/lifetime.h"
#include "frontend/generate.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"
#include "util/rng.h"
#include "util/table.h"

using namespace salsa;

namespace {

struct Tally {
  int problems = 0;
  int first_split = 0;   ///< first call (splits allowed) split a storage
  int retries = 0;       ///< strict calls made
  int retry_failed = 0;  ///< strict calls that threw
  int rescued = 0;       ///< split problems a strict retry made contiguous
};

// Restart 0's start, as allocate() derives its seeds (AllocatorOptions
// defaults: initial seed 1, warm_start_traditional on).
void tally_problem(const AllocProblem& prob, Tally& t) {
  const uint64_t seed = derive_seed(InitialOptions{}.seed, 0);
  ++t.problems;
  if (initial_allocation(prob, InitialOptions{.seed = seed}).is_traditional())
    return;
  ++t.first_split;
  for (int attempt = 0; attempt < 8; ++attempt) {
    ++t.retries;
    try {
      initial_allocation(
          prob, InitialOptions{.allow_splits = false,
                               .seed = derive_seed(
                                   seed, 1 + static_cast<uint64_t>(attempt))});
      ++t.rescued;
      return;
    } catch (const Error&) {
      ++t.retry_failed;
    }
  }
}

void tally_schedule(const Schedule& sched, int spare, Tally& t) {
  const AllocProblem prob(sched, FuPool::standard(peak_fu_demand(sched)),
                          Lifetimes(sched).min_registers() + spare);
  tally_problem(prob, t);
}

// Seeds of the generated corpora (the table in EXPERIMENTS.md).
constexpr int kSeeds = 4;

int draw(Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng.next() % static_cast<uint64_t>(hi - lo + 1));
}

}  // namespace

int main() {
  // Rows in first-seen order, keyed by "corpus/family".
  std::vector<std::string> keys;
  std::map<std::string, Tally> rows;
  auto row = [&](const std::string& key) -> Tally& {
    if (!rows.count(key)) keys.push_back(key);
    return rows[key];
  };

  // paper-flow built-ins: seed-independent, run once.
  const std::pair<const char*, Cdfg (*)()> paper[] = {
      {"ewf", make_ewf},   {"dct", make_dct},        {"fir8", make_fir8},
      {"ar", make_ar_filter}, {"diffeq", make_diffeq}};
  for (const auto& [name, make] : paper) {
    const Cdfg g = make();
    for (int pipelined = 0; pipelined < 2; ++pipelined) {
      HwSpec hw;
      hw.pipelined_mul = pipelined == 1;
      for (int slack = 0; slack <= 4; ++slack) {
        const Schedule sched =
            schedule_min_fu(g, hw, min_schedule_length(g, hw) + slack)
                .schedule;
        for (int spare = 0; spare <= 2; ++spare)
          tally_schedule(sched, spare, row(std::string("paper/") + name));
      }
    }
  }

  for (int s = 1; s <= kSeeds; ++s) {
    // large-flow: three designs per family in narrow size strata.
    const std::pair<GenFamily, std::array<int, 3>> large[] = {
        {GenFamily::kFilterCascade, {2160, 2480, 2800}},
        {GenFamily::kLayeredDag, {2150, 2500, 2850}},
        {GenFamily::kGemmPipeline, {2000, 2350, 2740}},
        {GenFamily::kMemoryTraffic, {2150, 2500, 2850}}};
    Rng rng(derive_seed(static_cast<uint64_t>(s), 101));
    for (const auto& [family, centres] : large) {
      for (const int centre : centres) {
        GenParams p;
        p.family = family;
        p.target_ops = draw(rng, centre - 50, centre + 50);
        p.seed = rng.next();
        p.dag_window = 1;
        const GeneratedDesign d = generate_design(p);
        tally_problem(*d.problem,
                      row(std::string("large/") + gen_family_name(family)));
      }
    }

    // explore: unrolled EWF and ~300/~500-op generated designs, each at its
    // critical path and 25% above it, one spare register.
    std::vector<std::pair<std::string, Cdfg>> graphs;
    graphs.emplace_back("ewf-unrolled", make_ewf_unrolled(4));
    graphs.emplace_back("ewf-unrolled", make_ewf_unrolled(8));
    const std::pair<GenFamily, std::array<int, 2>> mid[] = {
        {GenFamily::kFilterCascade, {300, 500}},
        {GenFamily::kLayeredDag, {290, 480}},
        {GenFamily::kGemmPipeline, {300, 500}}};
    Rng erng(derive_seed(static_cast<uint64_t>(s), 102));
    for (const auto& [family, centres] : mid) {
      for (const int centre : centres) {
        GenParams p;
        p.family = family;
        p.target_ops = draw(erng, centre - 25, centre + 25);
        p.seed = erng.next();
        p.cascade_sections = 4;
        graphs.emplace_back(gen_family_name(family), generate_cdfg(p));
      }
    }
    for (const auto& [name, g] : graphs) {
      const HwSpec hw;
      const int cp = min_schedule_length(g, hw);
      for (const int steps : {cp, cp + (cp + 3) / 4})
        tally_schedule(schedule_min_fu(g, hw, steps).schedule, 1,
                       row("explore/" + name));
    }
  }

  TextTable table;
  table.header({"corpus/family", "problems", "first split", "strict calls",
                "strict failed", "rescued"});
  Tally total;
  for (const std::string& key : keys) {
    const Tally& t = rows[key];
    table.row({key, std::to_string(t.problems), std::to_string(t.first_split),
               std::to_string(t.retries), std::to_string(t.retry_failed),
               std::to_string(t.rescued)});
    total.problems += t.problems;
    total.first_split += t.first_split;
    total.retries += t.retries;
    total.retry_failed += t.retry_failed;
    total.rescued += t.rescued;
  }
  table.separator();
  table.row({"total", std::to_string(total.problems),
             std::to_string(total.first_split), std::to_string(total.retries),
             std::to_string(total.retry_failed),
             std::to_string(total.rescued)});
  std::printf("%s", table.render().c_str());
  return 0;
}
