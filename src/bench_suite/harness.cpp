#include "bench_suite/harness.h"

#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "util/diagnostics.h"

namespace salsa::benchharness {

ProblemBundle make_problem(Cdfg graph, int length, bool pipelined,
                           int extra_regs) {
  ProblemBundle b;
  b.graph = std::make_unique<Cdfg>(std::move(graph));
  HwSpec hw;
  hw.pipelined_mul = pipelined;
  const FuSearchResult sr = schedule_min_fu(*b.graph, hw, length);
  b.schedule = std::make_unique<Schedule>(sr.schedule);
  b.fus = sr.fus;
  b.min_regs = Lifetimes(*b.schedule).min_registers();
  b.problem = std::make_unique<AllocProblem>(
      *b.schedule, FuPool::standard(b.fus), b.min_regs + extra_regs);
  return b;
}

ImproveParams standard_improve(uint64_t seed) {
  ImproveParams p;
  p.max_trials = 12;
  p.moves_per_trial = 5000;
  p.uphill_per_trial = 8;
  p.seed = seed;
  return p;
}

namespace {

ImproveParams budget_improve(const TableBudget& budget, uint64_t seed) {
  ImproveParams p = standard_improve(seed);
  p.max_trials = budget.max_trials;
  p.moves_per_trial = budget.moves_per_trial;
  return p;
}

// run_comparison generalised over the row budget. Restart fan-out stays
// sequential here: when the row grid itself runs on the pool, nesting a
// second level of parallelism would only oversubscribe (results are
// thread-count-invariant either way).
Comparison run_budget_comparison(const AllocProblem& prob, uint64_t seed,
                                 const TableBudget& budget) {
  Comparison out{AllocationResult{Binding(prob), {}, {}, {}},
                 AllocationResult{Binding(prob), {}, {}, {}}, true};
  TraditionalOptions topt;
  topt.improve = budget_improve(budget, seed);
  topt.restarts = budget.restarts;
  try {
    out.traditional = allocate_traditional(prob, topt);
  } catch (const Error&) {
    // No contiguous placement exists within the register budget: the
    // traditional model cannot implement this row at all (the situation the
    // paper's tightest Table 2 rows exploit).
    out.traditional_feasible = false;
  }

  AllocatorOptions sopt;
  sopt.improve = budget_improve(budget, seed + 1);
  sopt.restarts = budget.restarts;
  sopt.parallelism = Parallelism::sequential_only();
  out.salsa = allocate(prob, sopt);
  if (out.traditional_feasible) {
    ImproveParams refine = budget_improve(budget, seed + 2);
    ImproveResult r = improve(out.traditional.binding, refine);
    if (r.cost.total < out.salsa.cost.total) {
      out.salsa.binding = std::move(r.best);
      out.salsa.cost = r.cost;
      out.salsa.merging = merge_muxes(out.salsa.binding);
    }
  }
  return out;
}

struct GridPoint {
  int steps = 0;
  bool pipelined = false;
  int extra = 0;
  uint64_t seed = 0;
};

TableRow make_row(const GridPoint& g, Cdfg graph, const TableBudget& budget) {
  ProblemBundle b = make_problem(std::move(graph), g.steps, g.pipelined,
                                 g.extra);
  const Comparison cmp = run_budget_comparison(*b.problem, g.seed, budget);
  TableRow row;
  row.steps = g.steps;
  row.pipelined = g.pipelined;
  row.alus = b.fus.alu;
  row.muls = b.fus.mul;
  row.regs = b.min_regs + g.extra;
  row.traditional_feasible = cmp.traditional_feasible;
  row.salsa_muxes = cmp.salsa.cost.muxes;
  row.salsa_merged = cmp.salsa.merging.muxes_after;
  row.winner = "salsa";
  if (cmp.traditional_feasible) {
    row.trad_muxes = cmp.traditional.cost.muxes;
    row.trad_merged = cmp.traditional.merging.muxes_after;
    row.winner = row.salsa_merged < row.trad_merged   ? "salsa"
                 : row.salsa_merged == row.trad_merged ? "tie"
                                                       : "trad";
  }
  return row;
}

}  // namespace

Comparison run_comparison(const AllocProblem& prob, uint64_t seed) {
  return run_budget_comparison(prob, seed, TableBudget{});
}

namespace {

// The committed walls (BENCH_throughput.json, BENCH_scaling.json) must come
// from clean trees: a "-dirty" stamp means the record measures uncommitted
// code against a committed baseline. The record is still written — local
// iteration needs it — but loudly, so a dirty record is never committed by
// accident.
void warn_if_dirty_tree(const std::string& git_version,
                        const std::string& path) {
  if (git_version.find("-dirty") == std::string::npos) return;
  std::fprintf(stderr,
               "WARNING: %s was produced by a dirty tree (%s); do not commit "
               "this record — regenerate from a clean checkout.\n",
               path.c_str(), git_version.c_str());
}

}  // namespace

std::vector<TableRow> table2_rows(const TableBudget& budget,
                                  Parallelism parallelism) {
  struct Sched {
    int steps;
    bool pipelined;
  };
  const Sched scheds[] = {{17, false}, {17, true}, {19, false}, {19, true},
                          {21, false}};
  std::vector<GridPoint> grid;
  for (const Sched& s : scheds)
    for (int extra = 0; extra <= 2; ++extra)
      grid.push_back({s.steps, s.pipelined, extra,
                      1000 + static_cast<uint64_t>(s.steps * 10 + extra)});
  return parallel_map(parallelism, static_cast<int>(grid.size()), [&](int i) {
    return make_row(grid[static_cast<size_t>(i)], make_ewf(), budget);
  });
}

std::vector<TableRow> table3_rows(const TableBudget& budget,
                                  Parallelism parallelism) {
  std::vector<GridPoint> grid;
  for (const int steps : {7, 9, 11, 13})
    for (const int extra : {0, 2})
      grid.push_back({steps, false, extra,
                      3000 + static_cast<uint64_t>(steps * 10 + extra)});
  return parallel_map(parallelism, static_cast<int>(grid.size()), [&](int i) {
    return make_row(grid[static_cast<size_t>(i)], make_dct(), budget);
  });
}

std::string git_describe(std::string fallback) {
  FILE* pipe = popen("git describe --always --dirty --tags 2>/dev/null", "r");
  if (pipe == nullptr) return fallback;
  std::string out;
  char buf[256];
  while (fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int rc = pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  if (rc != 0 || out.empty()) return fallback;
  return out;
}

void write_throughput_json(const std::string& path,
                           const std::vector<ThroughputRow>& rows,
                           const std::string& git_version) {
  warn_if_dirty_tree(git_version, path);
  std::ofstream os(path);
  SALSA_CHECK_MSG(os.good(), "cannot open throughput record " + path);
  os << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.10g", r.moves_per_sec);
    os << "  {\"benchmark\": \"" << r.benchmark
       << "\", \"moves_per_sec\": " << rate << ", \"host_cores\": "
       << std::thread::hardware_concurrency() << ", \"git\": \""
       << git_version << "\"}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
  os.close();
  SALSA_CHECK_MSG(os.good(), "failed writing throughput record " + path);
}

void write_scaling_json(const std::string& path,
                        const std::vector<ScalingRow>& rows,
                        const std::string& git_version) {
  warn_if_dirty_tree(git_version, path);
  std::ofstream os(path);
  SALSA_CHECK_MSG(os.good(), "cannot open scaling record " + path);
  os << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScalingRow& r = rows[i];
    char rate[32], ns[32], rss[32];
    std::snprintf(rate, sizeof rate, "%.10g", r.moves_per_sec);
    std::snprintf(ns, sizeof ns, "%.10g",
                  r.moves_per_sec > 0 ? 1e9 / r.moves_per_sec : 0.0);
    std::snprintf(rss, sizeof rss, "%.10g", r.peak_rss_mb);
    os << "  {\"benchmark\": \"" << r.benchmark << "\", \"family\": \""
       << r.family << "\", \"ops\": " << r.ops << ", \"length\": " << r.length
       << ", \"regs\": " << r.regs << ", \"moves_per_sec\": " << rate
       << ", \"ns_per_move\": " << ns << ", \"peak_rss_mb\": " << rss
       << ", \"git\": \"" << git_version << "\"}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
  os.close();
  SALSA_CHECK_MSG(os.good(), "failed writing scaling record " + path);
}

void write_initial_json(const std::string& path,
                        const std::vector<InitialRow>& rows,
                        const std::string& git_version) {
  warn_if_dirty_tree(git_version, path);
  std::ofstream os(path);
  SALSA_CHECK_MSG(os.good(), "cannot open initial-allocation record " + path);
  os << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const InitialRow& r = rows[i];
    char ns[32];
    std::snprintf(ns, sizeof ns, "%.10g", r.ns_per_storage);
    os << "  {\"benchmark\": \"" << r.benchmark << "\", \"family\": \""
       << r.family << "\", \"ops\": " << r.ops
       << ", \"storages\": " << r.storages << ", \"regs\": " << r.regs
       << ", \"ns_per_storage\": " << ns << ", \"git\": \"" << git_version
       << "\"}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
  os.close();
  SALSA_CHECK_MSG(os.good(),
                  "failed writing initial-allocation record " + path);
}

}  // namespace salsa::benchharness
