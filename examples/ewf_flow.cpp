// The paper's flagship workload end to end: the fifth-order elliptic wave
// filter (Table 2). Schedules the EWF at a chosen latency, allocates it with
// both binding models, prints the interconnect comparison, verifies the
// datapath on the simulator, and writes the allocated design as structural
// Verilog plus a scheduled DOT graph.
//
// Usage: ewf_flow [csteps=17] [pipelined=0] [extra_regs=0]
#include <cstdio>
#include <fstream>

#include "baseline/traditional.h"
#include "bench_suite/ewf.h"
#include "cdfg/dot.h"
#include "core/allocator.h"
#include "datapath/simulator.h"
#include "datapath/verilog.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"
#include "util/strings.h"
#include "util/table.h"

using namespace salsa;

int main(int argc, char** argv) {
  int csteps = 17, extra_regs = 0;
  bool pipelined = false;
  try {
    if (argc > 1)
      csteps = static_cast<int>(parse_int(argv[1], 0, 100000, "csteps"));
    if (argc > 2) pipelined = parse_int(argv[2], 0, 1, "pipelined") != 0;
    if (argc > 3)
      extra_regs =
          static_cast<int>(parse_int(argv[3], 0, 100000, "extra_regs"));
  } catch (const Error& e) {
    std::fprintf(stderr,
                 "error: %s\nusage: ewf_flow [csteps=17] [pipelined=0] "
                 "[extra_regs=0]\n",
                 e.what());
    return 2;
  }

  Cdfg g = make_ewf();
  std::printf("EWF: %d adds, %d const-multiplies, %zu states\n",
              g.count(OpKind::kAdd), g.count(OpKind::kMul),
              g.state_nodes().size());

  HwSpec hw;
  hw.pipelined_mul = pipelined;
  const int cp = min_schedule_length(g, hw);
  if (csteps < cp) {
    std::printf("requested %d steps but the critical path is %d\n", csteps, cp);
    return 1;
  }
  const FuSearchResult sr = schedule_min_fu(g, hw, csteps);
  const Lifetimes lt(sr.schedule);
  std::printf("schedule: %d steps, %d ALUs, %d %smultipliers, "
              "min registers %d (+%d spare)\n\n",
              csteps, sr.fus.alu, sr.fus.mul, pipelined ? "pipelined " : "",
              lt.min_registers(), extra_regs);

  AllocProblem prob(sr.schedule, FuPool::standard(sr.fus),
                    lt.min_registers() + extra_regs);

  TraditionalOptions topt;
  topt.improve.max_trials = 12;
  topt.improve.moves_per_trial = 5000;
  topt.restarts = 2;
  AllocationResult trad = allocate_traditional(prob, topt);

  AllocatorOptions sopt;
  sopt.improve.max_trials = 12;
  sopt.improve.moves_per_trial = 5000;
  sopt.restarts = 2;
  AllocationResult ext = allocate(prob, sopt);
  // The extended model subsumes the traditional one: also refine the
  // traditional winner with the extended move set and keep the best.
  {
    ImproveParams refine = sopt.improve;
    refine.seed = 777;
    ImproveResult r = improve(trad.binding, refine);
    if (r.cost.total < ext.cost.total) {
      ext.binding = std::move(r.best);
      ext.cost = r.cost;
      ext.merging = merge_muxes(ext.binding);
    }
  }

  TextTable table;
  table.header({"model", "muxes", "merged", "conns", "regs", "passes",
                "copies"});
  auto extras = [&](const Binding& b) {
    int passes = 0, copies = 0;
    for (int sid = 0; sid < lt.num_storages(); ++sid) {
      for (const auto& seg : b.sto(sid).cells) {
        copies += static_cast<int>(seg.size()) - 1;
        for (const Cell& c : seg) passes += c.via != kInvalidId;
      }
    }
    return std::pair{passes, copies};
  };
  const auto [tp, tc] = extras(trad.binding);
  const auto [sp, sc] = extras(ext.binding);
  table.row({"traditional", std::to_string(trad.cost.muxes),
             std::to_string(trad.merging.muxes_after),
             std::to_string(trad.cost.connections),
             std::to_string(trad.cost.regs_used), std::to_string(tp),
             std::to_string(tc)});
  table.row({"SALSA", std::to_string(ext.cost.muxes),
             std::to_string(ext.merging.muxes_after),
             std::to_string(ext.cost.connections),
             std::to_string(ext.cost.regs_used), std::to_string(sp),
             std::to_string(sc)});
  std::printf("%s\n", table.render().c_str());

  Netlist nl(ext.binding);
  const std::string mismatch = random_equivalence_check(nl, 10, 7);
  std::printf("simulation check (10 iterations): %s\n",
              mismatch.empty() ? "MATCH" : mismatch.c_str());

  {
    std::ofstream vf("ewf_datapath.v");
    vf << to_verilog(nl, "ewf_datapath");
    std::vector<int> starts(static_cast<size_t>(g.num_nodes()));
    for (NodeId n = 0; n < g.num_nodes(); ++n) starts[static_cast<size_t>(n)] =
        sr.schedule.start(n);
    std::ofstream df("ewf_schedule.dot");
    df << to_dot(g, starts, csteps);
  }
  std::printf("wrote ewf_datapath.v and ewf_schedule.dot\n");
  return mismatch.empty() ? 0 : 1;
}
