// The paper's second workload (Table 3, Figure 5): the 8-point DCT. Sweeps
// several schedule lengths, allocates each with both binding models, and
// exports the CDFG itself (the paper's Figure 5) as a DOT graph.
//
// Usage: dct_flow [extra_regs=0]
#include <cstdio>
#include <fstream>

#include "baseline/traditional.h"
#include "bench_suite/dct.h"
#include "cdfg/dot.h"
#include "core/allocator.h"
#include "datapath/simulator.h"
#include "sched/fu_search.h"
#include "util/strings.h"
#include "util/table.h"

using namespace salsa;

int main(int argc, char** argv) {
  int extra_regs = 0;
  try {
    if (argc > 1)
      extra_regs =
          static_cast<int>(parse_int(argv[1], 0, 100000, "extra_regs"));
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\nusage: dct_flow [extra_regs=0]\n",
                 e.what());
    return 2;
  }
  Cdfg g = make_dct();
  std::printf("DCT: %d adds, %d subs, %d const-multiplies (Figure 5)\n\n",
              g.count(OpKind::kAdd), g.count(OpKind::kSub),
              g.count(OpKind::kMul));

  {
    std::ofstream df("dct_cdfg.dot");
    df << to_dot(g);
  }

  HwSpec hw;
  TextTable table;
  table.header({"steps", "ALUs", "MULs", "min regs", "trad muxes",
                "SALSA muxes", "SALSA merged"});
  bool all_ok = true;
  for (int L : {7, 9, 11, 13}) {
    const FuSearchResult sr = schedule_min_fu(g, hw, L);
    const Lifetimes lt(sr.schedule);
    AllocProblem prob(sr.schedule, FuPool::standard(sr.fus),
                      lt.min_registers() + extra_regs);
    TraditionalOptions topt;
    topt.improve.max_trials = 10;
    topt.improve.moves_per_trial = 4000;
    AllocationResult trad = allocate_traditional(prob, topt);
    AllocatorOptions sopt;
    sopt.improve.max_trials = 10;
    sopt.improve.moves_per_trial = 4000;
    AllocationResult ext = allocate(prob, sopt);
    ImproveParams refine = sopt.improve;
    refine.seed = 99;
    ImproveResult r = improve(trad.binding, refine);
    if (r.cost.total < ext.cost.total) {
      ext.binding = std::move(r.best);
      ext.cost = r.cost;
      ext.merging = merge_muxes(ext.binding);
    }
    Netlist nl(ext.binding);
    all_ok &= random_equivalence_check(nl, 4, 3).empty();
    table.row({std::to_string(L), std::to_string(sr.fus.alu),
               std::to_string(sr.fus.mul), std::to_string(lt.min_registers()),
               std::to_string(trad.merging.muxes_after),
               std::to_string(ext.cost.muxes),
               std::to_string(ext.merging.muxes_after)});
  }
  std::printf("%s\nwrote dct_cdfg.dot\nsimulation checks: %s\n",
              table.render().c_str(), all_ok ? "MATCH" : "MISMATCH");
  return all_ok ? 0 : 1;
}
