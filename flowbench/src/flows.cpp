#include "flows.h"

#include <cstdlib>
#include <iterator>
#include <optional>
#include <utility>

#include "analysis/digest.h"
#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "bench_suite/fir.h"
#include "bench_suite/random_cdfg.h"
#include "core/verify.h"
#include "datapath/event_sim.h"
#include "datapath/simulator.h"
#include "datapath/testbench.h"
#include "datapath/vcd.h"
#include "datapath/verilog.h"
#include "frontend/generate.h"
#include "io/text_format.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"
#include "util/diagnostics.h"
#include "util/rng.h"

namespace flowbench {

using namespace salsa;

namespace {

const Parallelism kOneThread{1};

/// Iterations of the per-flow simulation check (salsa_cli's value).
constexpr int kSimIterations = 6;

template <class F>
auto traced(Tracer* t, const char* name, F&& f) {
  ScopedSpan span(t, name);
  return f();
}

void count(Tracer* t, const std::string& name, double v) {
  if (t) t->add(name, v);
}

/// Speculation is switched off explicitly where the options still carry the
/// knob; written as a requires-test so the benchmark keeps compiling if the
/// library drops it.
template <class Opts>
void pin_speculation(Opts& o) {
  if constexpr (requires { o.speculation.k; }) {
    o.speculation.k = 1;
    o.speculation.parallelism = kOneThread;
  }
}

int draw(Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng.next() % static_cast<uint64_t>(hi - lo + 1));
}

void shuffle(std::vector<int>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next() % i]);
}

/// The problem salsa_cli builds from a schedule: the schedule's peak FU
/// demand and the lifetime minimum plus `extra_regs` registers.
std::unique_ptr<AllocProblem> make_problem(const Schedule& sched,
                                           int extra_regs) {
  const Lifetimes lt(sched);
  return std::make_unique<AllocProblem>(
      sched, FuPool::standard(peak_fu_demand(sched)),
      lt.min_registers() + extra_regs);
}

Schedule schedule_traced(Tracer* t, const Cdfg& g, const HwSpec& hw,
                         int steps) {
  count(t, "sched.min_fu.calls", 1);
  return traced(t, "sched.min_fu", [&] {
    const int cp = min_schedule_length(g, hw);
    if (steps < cp)
      fail("budget of " + std::to_string(steps) +
           " steps is below the critical path " + std::to_string(cp));
    return schedule_min_fu(g, hw, steps, 1.0, 4.0, kOneThread).schedule;
  });
}

AllocationResult allocate_in(Tracer* t, const AllocProblem& prob,
                             const AllocatorOptions& opts) {
  return t ? allocate_traced(prob, opts, *t) : allocate(prob, opts);
}

/// Allocated problem → netlist → simulation check against the CDFG
/// evaluator → optional Verilog, plus the output checks. Fills `out`.
void finish_flow(Tracer* t, const AllocationResult& res, const Schedule& sched,
                 const std::string& module, bool emit_verilog,
                 FlowOutput& out) {
  std::optional<Netlist> nl;
  traced(t, "datapath.netlist", [&] { return &nl.emplace(res.binding); });
  const std::string sim = traced(t, "datapath.sim_check", [&] {
    return random_equivalence_check(*nl, kSimIterations, 1);
  });
  out.sim_cycles = static_cast<long>(sched.length()) * kSimIterations;
  count(t, "datapath.sim_check.cycles", static_cast<double>(out.sim_cycles));
  if (emit_verilog) {
    const std::string v =
        traced(t, "datapath.verilog", [&] { return to_verilog(*nl, module); });
    if (v.find("endmodule") == std::string::npos)
      out.error = "Verilog emission is incomplete";
  }
  ScopedSpan span(t, "bench.check");
  if (!sim.empty()) out.error = "simulation check: " + sim;
  if (out.error.empty()) out.error = check_allocation(res);
  out.digest = digest_binding(res.binding);
  out.muxes_merged = res.merging.muxes_after;
  out.regs_used = res.cost.regs_used;
}

// ---------------------------------------------------------------------------
// paper-flow: the 1992 designs and small random CDFGs through the whole
// salsa_cli flow, text parse included. Most of each flow is improve().

/// Random CDFGs per corpus: kPaperRandomPerStratum per 3-op stratum of
/// 15-59 ops.
constexpr int kPaperRandomStrata = 15;
constexpr int kPaperRandomPerStratum = 3;
/// Latency slack over the critical path, 0..kPaperMaxSlack steps.
constexpr int kPaperMaxSlack = 4;

class PaperFlow : public Workload {
 public:
  void setup(uint64_t seed, Tracer* t) override {
    items_.clear();
    Rng rng(derive_seed(seed, 0));
    std::vector<std::pair<std::string, Cdfg>> builtins, randoms;
    traced(t, "bench_suite.make", [&] {
      builtins.emplace_back("ewf", make_ewf());
      builtins.emplace_back("dct", make_dct());
      builtins.emplace_back("fir8", make_fir8());
      builtins.emplace_back("ar", make_ar_filter());
      builtins.emplace_back("diffeq", make_diffeq());
      for (int k = 0; k < kPaperRandomStrata; ++k)
        for (int j = 0; j < kPaperRandomPerStratum; ++j) {
          RandomCdfgParams p;
          p.num_ops = 15 + 3 * k + draw(rng, 0, 2);
          p.seed = rng.next();
          randoms.emplace_back("random" + std::to_string(p.num_ops),
                               make_random_cdfg(p));
        }
      return 0;
    });
    // Each built-in design runs under every budget slack and multiplier
    // choice, so the seed changes only its spare registers. Each random
    // design gets a seeded slack, multiplier and spare count, drawn as a
    // permutation of a balanced mix. Both keep a pass's total work close
    // across seeds: one design's flow time varies about 2x with its
    // choices, which with a few seeded choices moved whole-run throughput
    // by over 25% between seeds.
    struct Choice {
      int slack, pipelined, spare;
    };
    std::vector<std::pair<const std::pair<std::string, Cdfg>*, Choice>> flows;
    std::vector<int> spare;
    for (int i = 0; i < (kPaperMaxSlack + 1) * 2; ++i)
      spare.push_back(1 + i % 2);
    for (const auto& g : builtins) {
      shuffle(spare, rng);
      size_t k = 0;
      for (int slack = 0; slack <= kPaperMaxSlack; ++slack)
        for (int pipelined = 0; pipelined < 2; ++pipelined)
          flows.push_back({&g, {slack, pipelined, spare[k++]}});
    }
    std::vector<int> slack, pipelined;
    spare.clear();
    for (size_t i = 0; i < randoms.size(); ++i) {
      slack.push_back(static_cast<int>(i % (kPaperMaxSlack + 1)));
      pipelined.push_back(static_cast<int>(i % 2));
      spare.push_back(1 + static_cast<int>(i / 2 % 2));
    }
    shuffle(slack, rng);
    shuffle(pipelined, rng);
    shuffle(spare, rng);
    for (size_t i = 0; i < randoms.size(); ++i)
      flows.push_back({&randoms[i], {slack[i], pipelined[i], spare[i]}});
    for (const auto& [g, c] : flows) {
      Item it;
      it.label = g->first;
      it.pipelined = c.pipelined == 1;
      HwSpec hw;
      hw.pipelined_mul = it.pipelined;
      it.steps = min_schedule_length(g->second, hw) + c.slack;
      it.extra_regs = c.spare;
      it.text = traced(t, "io.write", [&] { return write_design(g->second); });
      items_.push_back(std::move(it));
    }
  }
  size_t size() const override { return items_.size(); }
  std::string label(size_t i) const override {
    const Item& it = items_[i];
    return it.label + "@" + std::to_string(it.steps) +
           (it.pipelined ? "p" : "");
  }

  /// 95 flows a pass; a 22-s run holds ten passes or more.
  int tail_max_percentile() const override { return 95; }

  FlowOutput run(size_t i, Tracer* t) const override {
    const Item& it = items_[i];
    FlowOutput out;
    ParsedDesign d =
        traced(t, "io.parse", [&] { return parse_design_string(it.text); });
    HwSpec hw = d.hw;
    hw.pipelined_mul = it.pipelined;
    const Schedule sched = schedule_traced(t, *d.cdfg, hw, it.steps);
    const auto prob = traced(t, "core.problem",
                             [&] { return make_problem(sched, it.extra_regs); });
    const AllocationResult res = allocate_in(t, *prob, pinned_options());
    finish_flow(t, res, sched, d.cdfg->name(), true, out);
    return out;
  }

 private:
  struct Item {
    std::string label;
    std::string text;  ///< the design in the text format, no schedule
    bool pipelined = false;
    int steps = 0;
    int extra_regs = 1;
  };
  std::vector<Item> items_;
};

// ---------------------------------------------------------------------------
// large-flow: generated 2k–3k-op designs, list-scheduled by the generator in
// set-up; the timed flow is allocate → netlist → sim check → Verilog. At this
// size initial_allocation (with its failing contiguous retries) dominates.

const GenFamily kLargeFamilies[] = {GenFamily::kFilterCascade,
                                    GenFamily::kLayeredDag,
                                    GenFamily::kGemmPipeline,
                                    GenFamily::kMemoryTraffic};
/// large-flow's size strata per family (draws are within 50 ops).
constexpr size_t kLargeStrata = 3;
const int kLargeCentres[][kLargeStrata] = {{2160, 2480, 2800},
                                           {2150, 2500, 2850},
                                           {2000, 2350, 2740},
                                           {2150, 2500, 2850}};

class LargeFlow : public Workload {
 public:
  void setup(uint64_t seed, Tracer* t) override {
    items_.clear();
    Rng rng(derive_seed(seed, 1));
    // Three designs per family, from 2.1k to 2.9k ops: narrow seeded strata
    // keep the corpus's total work close across seeds. Each family's
    // strata sit inside one step of its size granularity (160-op cascade
    // channels; T x T GEMM tiles of 15-op elements), so no draw jumps a
    // step. The DAG operand window of 1 serves the same end: with it every
    // DAG gets a contiguous first placement, where wider windows leave that
    // to the draw and a DAG that misses it costs 3-4x (eight failing strict
    // retries). The cascades take that retry path on every draw. Twelve
    // designs give even the slowest host two timed passes in a 22-s run,
    // the 20 samples the tail's p50 rung needs.
    for (size_t fi = 0; fi < std::size(kLargeFamilies); ++fi) {
      for (const int centre : kLargeCentres[fi]) {
        GenParams p;
        p.family = kLargeFamilies[fi];
        p.target_ops = draw(rng, centre - 50, centre + 50);
        p.seed = rng.next();
        p.dag_window = 1;
        items_.push_back(traced(t, "frontend.generate",
                                [&] { return generate_design(p); }));
      }
    }
  }
  size_t size() const override { return items_.size(); }
  std::string label(size_t i) const override {
    return std::string(gen_family_name(kLargeFamilies[i / kLargeStrata])) +
           std::to_string(items_[i].num_ops);
  }

  /// Twelve flows a pass; a 22-s run holds two to four passes.
  int tail_max_percentile() const override { return 50; }

  FlowOutput run(size_t i, Tracer* t) const override {
    const GeneratedDesign& d = items_[i];
    FlowOutput out;
    const AllocationResult res = allocate_in(t, *d.problem, pinned_options());
    finish_flow(t, res, *d.schedule, label(i), true, out);
    return out;
  }

 private:
  std::vector<GeneratedDesign> items_;
};

// ---------------------------------------------------------------------------
// explore: a design-space sweep shaped like examples/design_space.cpp. Each
// design is scheduled with minimum FUs at two latency budgets and allocated
// with a capped search; schedule_min_fu dominates.

class Explore : public Workload {
 public:
  void setup(uint64_t seed, Tracer* t) override {
    graphs_.clear();
    items_.clear();
    Rng rng(derive_seed(seed, 2));
    traced(t, "bench_suite.make", [&] {
      graphs_.emplace_back("ewf4x", make_ewf_unrolled(4));
      graphs_.emplace_back("ewf8x", make_ewf_unrolled(8));
      return 0;
    });
    const GenFamily families[] = {GenFamily::kFilterCascade,
                                  GenFamily::kLayeredDag,
                                  GenFamily::kGemmPipeline};
    // Two designs per family, near 300 and near 500 ops: seeded sizes in
    // narrow strata, since schedule_min_fu's cost grows steeply with size
    // and wide draws would make a pass's work depend on the seed. Each
    // family's strata sit inside one step of its size granularity (64-op
    // DAG layers; T x T GEMM tiles of 15-op elements), and cascades use
    // 4-section channels (40 ops), so their size follows the target
    // instead of jumping in 160-op steps.
    const int centres[][2] = {{300, 500}, {290, 480}, {300, 500}};
    for (size_t fi = 0; fi < std::size(families); ++fi) {
      const GenFamily f = families[fi];
      for (const int centre : centres[fi]) {
        GenParams p;
        p.family = f;
        p.target_ops = draw(rng, centre - 25, centre + 25);
        p.seed = rng.next();
        p.cascade_sections = 4;
        graphs_.emplace_back(gen_family_name(f),
                             traced(t, "frontend.generate",
                                    [&] { return generate_cdfg(p); }));
      }
    }
    const HwSpec hw;
    for (size_t g = 0; g < graphs_.size(); ++g) {
      const int cp = min_schedule_length(graphs_[g].second, hw);
      items_.push_back({g, cp});
      items_.push_back({g, cp + (cp + 3) / 4});
    }
  }
  size_t size() const override { return items_.size(); }
  std::string label(size_t i) const override {
    const auto& [g, steps] = items_[i];
    const Cdfg& cdfg = graphs_[g].second;
    return graphs_[g].first +
           std::to_string(static_cast<int>(cdfg.operations().size())) + "@" +
           std::to_string(steps);
  }

  /// Sixteen flows a pass; a 22-s run holds seven passes or more.
  int tail_max_percentile() const override { return 90; }

  FlowOutput run(size_t i, Tracer* t) const override {
    const auto& [g, steps] = items_[i];
    const Cdfg& cdfg = graphs_[g].second;
    FlowOutput out;
    const Schedule sched = schedule_traced(t, cdfg, HwSpec{}, steps);
    const auto prob =
        traced(t, "core.problem", [&] { return make_problem(sched, 1); });
    AllocatorOptions opts = pinned_options();
    opts.improve.max_trials = 8;
    const AllocationResult res = allocate_in(t, *prob, opts);
    finish_flow(t, res, sched, cdfg.name(), false, out);
    return out;
  }

 private:
  std::vector<std::pair<std::string, Cdfg>> graphs_;
  std::vector<std::pair<size_t, int>> items_;  ///< (graph, latency budget)
};

// ---------------------------------------------------------------------------
// verify: datapaths allocated in set-up; each timed job simulates one over a
// long stimulus against the CDFG evaluator, diffs the event-driven engine
// against full evaluation, and renders a VCD and a testbench over a prefix.

/// Iterations per job: long enough on the paper designs that simulation
/// dominates the per-job output checks.
constexpr int kVerifyPaperIterations = 2000;
constexpr int kVerifyLargeIterations = 100;
/// Iterations rendered into the VCD and the testbench.
constexpr int kVerifyPrefix = 8;

class Verify : public Workload {
 public:
  void setup(uint64_t seed, Tracer* t) override {
    items_.clear();
    Rng rng(derive_seed(seed, 3));
    std::vector<std::pair<std::string, Cdfg>> paper;
    traced(t, "bench_suite.make", [&] {
      paper.emplace_back("ewf", make_ewf());
      paper.emplace_back("dct", make_dct());
      paper.emplace_back("fir8", make_fir8());
      paper.emplace_back("ar", make_ar_filter());
      paper.emplace_back("diffeq", make_diffeq());
      return 0;
    });
    // Budget slack 0..2 over the critical path, as a seeded permutation of
    // a balanced mix: simulation time grows with the schedule length, so
    // independent draws would make a pass's work depend on the seed.
    std::vector<int> slack;
    for (size_t i = 0; i < paper.size(); ++i)
      slack.push_back(static_cast<int>(i % 3));
    shuffle(slack, rng);
    for (size_t i = 0; i < paper.size(); ++i) {
      auto& [label, g] = paper[i];
      if (t) t->new_flow(false);
      auto it = std::make_unique<Item>();
      it->label = label;
      it->graph = std::make_unique<Cdfg>(std::move(g));
      HwSpec hw;
      const int steps = min_schedule_length(*it->graph, hw) + slack[i];
      it->schedule =
          std::make_unique<Schedule>(schedule_traced(t, *it->graph, hw, steps));
      it->iterations = kVerifyPaperIterations;
      finish_setup(*it, rng, t);
      items_.push_back(std::move(it));
    }
    for (const GenFamily f : kLargeFamilies) {
      if (t) t->new_flow(false);
      GenParams p;
      p.family = f;
      p.target_ops = 1000;
      p.seed = rng.next();
      GeneratedDesign d =
          traced(t, "frontend.generate", [&] { return generate_design(p); });
      auto it = std::make_unique<Item>();
      it->label = gen_family_name(f) + std::to_string(d.num_ops);
      it->graph = std::move(d.graph);
      it->schedule = std::move(d.schedule);
      it->iterations = kVerifyLargeIterations;
      finish_setup(*it, rng, t);
      items_.push_back(std::move(it));
    }
  }
  size_t size() const override { return items_.size(); }
  std::string label(size_t i) const override { return items_[i]->label; }
  std::vector<SetupAllocation> setup_allocations() const override {
    std::vector<SetupAllocation> out;
    for (const auto& it : items_) out.push_back({it->digest, it->trace_flow});
    return out;
  }

  /// Nine flows a pass; a 22-s run holds seven passes or more.
  int tail_max_percentile() const override { return 75; }

  FlowOutput run(size_t i, Tracer* t) const override {
    const Item& it = *items_[i];
    FlowOutput out;
    const std::string sim = traced(t, "datapath.sim_check", [&] {
      return random_equivalence_check(*it.netlist, it.iterations, it.stim_seed);
    });
    out.sim_cycles = static_cast<long>(it.schedule->length()) * it.iterations;
    count(t, "datapath.sim_check.cycles", static_cast<double>(out.sim_cycles));
    const std::string diff = traced(t, "datapath.event_diff", [&] {
      return random_engine_diff(*it.netlist, it.iterations, it.stim_seed);
    });
    const std::string vcd = traced(t, "datapath.vcd", [&] {
      return dump_vcd(*it.netlist, it.prefix, it.states, kVerifyPrefix,
                      it.label);
    });
    const std::string tb = traced(t, "datapath.testbench", [&] {
      return to_testbench(*it.netlist, it.prefix, it.states, kVerifyPrefix,
                          it.label);
    });
    ScopedSpan span(t, "bench.check");
    if (!sim.empty()) out.error = "simulation check: " + sim;
    if (out.error.empty() && !diff.empty()) out.error = "engine diff: " + diff;
    if (out.error.empty() && vcd.find("$enddefinitions") == std::string::npos)
      out.error = "VCD dump is incomplete";
    if (out.error.empty() && tb.find("endmodule") == std::string::npos)
      out.error = "testbench is incomplete";
    if (out.error.empty()) out.error = check_allocation(*it.result);
    out.digest = it.digest;
    out.muxes_merged = it.result->merging.muxes_after;
    out.regs_used = it.result->cost.regs_used;
    return out;
  }

 private:
  struct Item {
    std::string label;
    std::unique_ptr<Cdfg> graph;
    std::unique_ptr<Schedule> schedule;
    std::unique_ptr<AllocProblem> problem;
    std::unique_ptr<AllocationResult> result;
    std::unique_ptr<Netlist> netlist;
    uint64_t digest = 0;
    int trace_flow = -1;
    int iterations = 0;
    uint64_t stim_seed = 0;
    std::vector<std::vector<int64_t>> prefix;  ///< VCD/testbench stimulus
    std::vector<int64_t> states;
  };

  static void finish_setup(Item& it, Rng& rng, Tracer* t) {
    it.trace_flow = t ? t->current_flow() : -1;
    it.problem = traced(t, "core.problem",
                        [&] { return make_problem(*it.schedule, 1); });
    it.result = std::make_unique<AllocationResult>(
        allocate_in(t, *it.problem, pinned_options()));
    it.digest = digest_binding(it.result->binding);
    it.netlist = traced(t, "datapath.netlist", [&] {
      return std::make_unique<Netlist>(it.result->binding);
    });
    it.stim_seed = rng.next();
    const size_t inputs = it.graph->input_nodes().size();
    it.prefix.assign(kVerifyPrefix + 1, std::vector<int64_t>(inputs));
    for (auto& vec : it.prefix)
      for (auto& v : vec) v = static_cast<int64_t>(rng.next() % 2001) - 1000;
    it.states.assign(it.graph->state_nodes().size(), 0);
    for (auto& v : it.states) v = static_cast<int64_t>(rng.next() % 2001) - 1000;
  }

  std::vector<std::unique_ptr<Item>> items_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-flow", "large-flow",
                                                 "explore", "verify"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "paper-flow") return std::make_unique<PaperFlow>();
  if (name == "large-flow") return std::make_unique<LargeFlow>();
  if (name == "explore") return std::make_unique<Explore>();
  if (name == "verify") return std::make_unique<Verify>();
  return nullptr;
}

std::vector<std::string> environment_overrides() {
  std::vector<std::string> set;
  for (const char* var : {"SALSA_THREADS", "SALSA_CHECK", "SALSA_SPECULATION",
                          "SALSA_RESTART_PATIENCE"})
    if (std::getenv(var) != nullptr) set.emplace_back(var);
  return set;
}

AllocatorOptions pinned_options() {
  AllocatorOptions o;
  o.parallelism = kOneThread;
  o.checked = CheckMode::kFinal;
  o.restart_patience = -1;
  pin_speculation(o);
  pin_speculation(o.improve);
  return o;
}

AllocationResult allocate_traced(const AllocProblem& prob,
                                 const AllocatorOptions& opts, Tracer& t) {
  SALSA_CHECK_MSG(opts.restarts == 1 && opts.improve.trace == nullptr &&
                      opts.improve.observer == nullptr &&
                      (opts.checked == CheckMode::kOff ||
                       opts.checked == CheckMode::kFinal),
                  "allocate_traced decomposes single-restart, unaudited runs");
  ScopedSpan facade(&t, "core.allocate");
  // Restart 0's seed streams, as allocate() derives them.
  InitialOptions init = opts.initial;
  init.seed = derive_seed(opts.initial.seed, 0);
  ImproveParams params = opts.improve;
  params.seed = derive_seed(opts.improve.seed, 1);
  pin_speculation(params);

  auto initial = [&](const InitialOptions& o) {
    ScopedSpan span(&t, "core.initial");
    t.add("core.initial.calls", 1);
    try {
      return initial_allocation(prob, o);
    } catch (const Error&) {
      t.add("core.initial.failed", 1);
      throw;
    }
  };
  Binding start = initial(init);
  if (opts.warm_start_traditional && !start.is_traditional()) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      try {
        InitialOptions strict = init;
        strict.allow_splits = false;
        strict.seed = derive_seed(init.seed, 1 + static_cast<uint64_t>(attempt));
        start = initial(strict);
        break;
      } catch (const Error&) {
        // no contiguous placement under this order, as in allocate()
      }
    }
  }
  ImproveStats stats;
  if (opts.warm_start_traditional && start.is_traditional()) {
    ImproveParams warm = params;
    warm.moves = MoveConfig::traditional();
    warm.seed = params.seed ^ 0x5A15Au;
    ImproveResult wr =
        traced(&t, "core.search.warm", [&] { return improve(start, warm); });
    stats += wr.stats;
    start = std::move(wr.best);
  }
  ImproveResult res =
      traced(&t, "core.search.main", [&] { return improve(start, params); });
  stats += res.stats;
  if (opts.checked != CheckMode::kOff)
    traced(&t, "core.check_legal", [&] {
      check_legal(res.best);
      return 0;
    });
  AllocationResult out{std::move(res.best), res.cost, {}, stats};
  out.merging =
      traced(&t, "core.mux_merge", [&] { return merge_muxes(out.binding); });

  t.add("core.moves.attempted", static_cast<double>(stats.attempted));
  t.add("core.moves.accepted", static_cast<double>(stats.accepted));
  for (int k = 0; k < kNumMoveKinds; ++k) {
    const std::string kind(move_name(static_cast<MoveKind>(k)), 2);
    const MoveKindStats& ks = stats.by_kind[static_cast<size_t>(k)];
    t.add("core.kind." + kind + ".attempted", static_cast<double>(ks.attempted));
    t.add("core.kind." + kind + ".accepted", static_cast<double>(ks.accepted));
  }
  t.add("core.muxes.before_merge", out.merging.muxes_before);
  return out;
}

std::string check_allocation(const AllocationResult& res) {
  const std::vector<std::string> bad = verify(res.binding);
  if (!bad.empty()) return "verify(): " + bad.front();
  const CostBreakdown c = evaluate_cost(res.binding);
  const CostBreakdown& r = res.cost;
  if (c.fus_used != r.fus_used || c.regs_used != r.regs_used ||
      c.connections != r.connections || c.muxes != r.muxes ||
      c.total != r.total)
    return "evaluate_cost() disagrees with the reported cost";
  return "";
}

}  // namespace flowbench
