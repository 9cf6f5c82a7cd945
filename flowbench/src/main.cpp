// flowbench — times the SALSA flow end to end (untraced) or per layer
// (traced) on one seeded workload, checks every output, and prints the
// metrics; the last line of standard output is the JSON result.
//
//   flowbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// The loop is closed, with one client in one process: each flow starts when
// the previous one ends. After one untimed pass over the corpus, whole passes
// run for about S seconds, so every design contributes equally to the
// samples.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/digest.h"
#include "flows.h"
#include "stats.h"
#include "trace.h"

using namespace flowbench;

namespace {

/// Set-up runs at least kMinSetupRepeats times and, for cheap set-ups, until
/// kMinSetupSeconds have been spent; setup_s is the median repetition.
constexpr int kMinSetupRepeats = 3;
constexpr int kMaxSetupRepeats = 2000;
constexpr double kMinSetupSeconds = 0.3;
/// Failure messages printed before the rest are only counted.
constexpr int kMaxReportedFailures = 5;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time this process has used, in seconds.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               why.c_str());
  for (const std::string& w : workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value after " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = !v.empty() && v[0] != '-' && *end == '\0';
      if (!have_seed) usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0) ||
          a.seconds > 600)
        usage("--seconds takes a number in (0, 600]");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

/// The flows of one kind (untraced or traced) of a run, over whole passes of
/// the corpus.
struct Phase {
  std::vector<double> flow_ms;
  std::vector<std::vector<double>> item_ms;  ///< per design
  std::vector<std::optional<uint64_t>> digest;  ///< per design, first success
  long succeeded = 0;
  long sim_cycles = 0;
  long passes = 0;
  double elapsed_s = 0;
  double cpu_s = 0;  ///< process CPU time over the same passes
  long muxes_merged = 0;  ///< first pass
  long regs_used = 0;     ///< first pass
  salsa::Fnv1a corpus_digest;  ///< first-pass binding digests, flow order
  long decomposition_compared = 0;
  long decomposition_matched = 0;
};

/// Runs one pass over the corpus into `ph`. When `t` is set the flows are
/// traced and their bindings are compared with `reference`, the untraced
/// flows' per-design digests.
void run_pass(const Workload& w, Tracer* t, const Phase* reference, Phase& ph,
              FlowCounter& counter, int& reported) {
  const size_t n = w.size();
  ph.item_ms.resize(n);
  ph.digest.resize(n);
  const auto start = Clock::now();
  const double cpu0 = cpu_seconds();
  for (size_t i = 0; i < n; ++i) {
    const int flow = t ? t->new_flow(true) : -1;
    FlowOutput out;
    const auto t0 = Clock::now();
    const std::string err = counter.run([&] {
      ScopedSpan root(t, "flow");
      out = w.run(i, t);
      if (!out.error.empty()) return out.error;
      if (ph.digest[i] && *ph.digest[i] != out.digest)
        return std::string("binding differs from this design's first flow");
      return std::string();
    });
    const double ms = seconds_since(t0) * 1e3;
    ph.flow_ms.push_back(ms);
    ph.item_ms[i].push_back(ms);
    if (!err.empty()) {
      if (reported++ < kMaxReportedFailures)
        std::printf("FAILED flow %s: %s\n", w.label(i).c_str(), err.c_str());
      continue;
    }
    ++ph.succeeded;
    ph.sim_cycles += out.sim_cycles;
    if (ph.passes == 0) {
      ph.muxes_merged += out.muxes_merged;
      ph.regs_used += out.regs_used;
      ph.corpus_digest.u64(out.digest);
    }
    if (!ph.digest[i]) ph.digest[i] = out.digest;
    if (t && reference && reference->digest[i]) {
      ++ph.decomposition_compared;
      if (reconcile_decomposition(*t, flow, out.digest, *reference->digest[i]))
        ++ph.decomposition_matched;
    }
  }
  ++ph.passes;
  ph.elapsed_s += seconds_since(start);
  ph.cpu_s += cpu_seconds() - cpu0;
}

/// Wall time of a typical pass: the sum over the corpus of each design's
/// median flow time. Rates are taken over it rather than over the whole
/// timed span, so a burst of host load during a few flows does not move
/// them.
double typical_pass_s(const Phase& ph) {
  double ms = 0;
  for (const std::vector<double>& v : ph.item_ms) ms += median(v);
  return ms * 1e-3;
}

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

/// Layers timed by spans, in flow order.
const char* const kLayers[] = {
    "io.parse",          "frontend.generate",   "sched.min_fu",
    "core.initial",      "core.search.warm",    "core.search.main",
    "core.check_legal",  "core.mux_merge",      "core.allocate",
    "datapath.netlist",  "datapath.sim_check",  "datapath.event_diff",
    "datapath.vcd",      "datapath.testbench",  "datapath.verilog"};

/// Times of layers that some workload never calls. They are printed but
/// kept out of the result line, which holds only times every workload
/// measures as nonzero; the layers' shares of flow time stand in for them.
bool reported_only(const std::string& name) {
  static const char* const kNames[] = {
      "io.parse.ms",         "frontend.generate.ms", "sched.min_fu.ms",
      "datapath.event_diff.ms", "datapath.vcd.ms",   "datapath.testbench.ms",
      "datapath.verilog.ms"};
  for (const char* n : kNames)
    if (name == n) return true;
  return false;
}

/// The per-layer metrics of a traced run: each layer's summed self time
/// (set-up spans included), its share of timed flow wall time, and the
/// layer counters.
std::vector<Metric> layer_metrics(const Tracer& t, long matched,
                                  long compared) {
  const std::map<std::string, LayerTotal> all = t.totals(false);
  const std::map<std::string, LayerTotal> timed = t.totals(true);
  auto self_ms = [](const std::map<std::string, LayerTotal>& tot,
                    const std::string& name) {
    const auto it = tot.find(name);
    return it == tot.end() ? 0.0 : it->second.self_ms;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double flow_ms = timed.count("flow") ? timed.at("flow").total_ms : 0.0;
  const double calls = t.counter("core.initial.calls");
  const double failed = t.counter("core.initial.failed");
  const double attempted = t.counter("core.moves.attempted");
  const double accepted = t.counter("core.moves.accepted");
  const double search_ms =
      self_ms(all, "core.search.warm") + self_ms(all, "core.search.main");
  const double cycles = t.counter("datapath.sim_check.cycles");

  std::vector<Metric> m;
  for (const std::string layer : kLayers)
    m.push_back({layer + ".ms", self_ms(all, layer), "ms"});
  for (const std::string layer : kLayers)
    if (layer != "frontend.generate" && layer != "core.allocate")
      m.push_back({layer + ".share",
                   100.0 * ratio(self_ms(timed, layer), flow_ms), "%"});
  const std::vector<Metric> counters = {
      {"sched.min_fu.calls", t.counter("sched.min_fu.calls"), "count"},
      {"core.initial.calls", calls, "count"},
      {"core.initial.failed", failed, "count"},
      {"core.initial.useful_ratio", ratio(calls - failed, calls), "ratio"},
      {"core.moves.attempted", attempted, "count"},
      {"core.moves.accepted", accepted, "count"},
      {"core.moves.accept_ratio", ratio(accepted, attempted), "ratio"},
      {"core.moves.ns_per_attempt", ratio(search_ms * 1e6, attempted), "ns"},
      {"core.muxes.before_merge", t.counter("core.muxes.before_merge"),
       "count"},
      {"core.decomposition_match",
       compared ? static_cast<double>(matched) / static_cast<double>(compared)
                : 1.0,
       "ratio"},
      {"datapath.sim_check.cycles", cycles, "count"},
      {"datapath.sim_check.ns_per_cycle",
       ratio(self_ms(all, "datapath.sim_check") * 1e6, cycles), "ns"},
  };
  m.insert(m.end(), counters.begin(), counters.end());
  for (const char* kind : {"F1", "F2", "F3", "F4", "F5", "R1", "R2", "R3",
                           "R4", "R5", "R6", "R7"})
    for (const char* what : {"attempted", "accepted"}) {
      const std::string name = std::string("core.kind.") + kind + "." + what;
      m.push_back({name, t.counter(name), "count"});
    }
  return m;
}

/// Share of timed flow wall time per layer (self time), largest first.
void print_layer_shares(const Tracer& t) {
  const std::map<std::string, LayerTotal> tot = t.totals(true);
  const auto flow = tot.find("flow");
  if (flow == tot.end() || flow->second.total_ms <= 0) return;
  const double wall = flow->second.total_ms;
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, lt] : tot)
    if (name != "flow") rows.emplace_back(lt.self_ms, name);
  std::sort(rows.rbegin(), rows.rend());
  std::printf("layer shares of %.1f ms of timed flow wall time (self time):\n",
              wall);
  for (const auto& [self_ms, name] : rows)
    std::printf("  %-26s %6.2f%%  %12.3f ms  %7ld spans%s\n", name.c_str(),
                100.0 * self_ms / wall, self_ms, tot.at(name).count,
                tot.at(name).stale ? "  (stale spans present)" : "");
  std::printf("  %-26s %6.2f%%  (flow time outside every layer span)\n",
              "(uncovered)", 100.0 * flow->second.self_ms / wall);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<std::string> env = environment_overrides();
  if (!env.empty()) {
    std::fprintf(stderr, "flowbench: refusing to start: %s is set; the "
                         "benchmark pins these options itself\n",
                 env.front().c_str());
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) usage("unknown workload '" + args.workload + "'");

  std::printf("flowbench workload=%s seed=%llu seconds=%g mode=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "traced" : "untraced");
  std::fflush(stdout);

  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;

  // Set-up, repeated untraced for setup_s; a traced run then sets up once
  // more under the tracer and checks its set-up allocations against the
  // untraced ones.
  std::vector<double> setup_times;
  double setup_total = 0;
  while (setup_times.size() < kMinSetupRepeats ||
         (setup_total < kMinSetupSeconds &&
          setup_times.size() < kMaxSetupRepeats)) {
    const auto t0 = Clock::now();
    w->setup(args.seed, nullptr);
    setup_times.push_back(seconds_since(t0));
    setup_total += setup_times.back();
  }
  long matched = 0, compared = 0;
  if (t) {
    const auto untraced_setup = w->setup_allocations();
    t->new_flow(false);
    w->setup(args.seed, t);
    const auto traced_setup = w->setup_allocations();
    for (size_t j = 0; j < traced_setup.size(); ++j) {
      ++compared;
      if (reconcile_decomposition(*t, traced_setup[j].flow,
                                  traced_setup[j].digest,
                                  untraced_setup[j].digest))
        ++matched;
    }
  }

  FlowCounter counter;
  int reported = 0;
  // One untimed pass first: later passes in a process run slower than the
  // first, so timing starts in the steady state, and the pass supplies the
  // reference digests for the traced flows. Then whole passes while the
  // next one is expected to end less than half a pass past the budget; a
  // traced run alternates untraced passes (the overhead baseline) with
  // traced ones, so drift in the host's speed affects both alike.
  Phase reference, plain, traced;
  run_pass(*w, nullptr, nullptr, reference, counter, reported);
  const auto loop_start = Clock::now();
  double round_s = 0;
  do {
    const auto round_start = Clock::now();
    run_pass(*w, nullptr, nullptr, plain, counter, reported);
    if (t) run_pass(*w, t, &reference, traced, counter, reported);
    round_s = seconds_since(round_start);
  } while (seconds_since(loop_start) + 0.5 * round_s < args.seconds);
  matched += traced.decomposition_matched;
  compared += traced.decomposition_compared;
  const bool correct = counter.failed() == 0;

  std::printf("corpus: %zu designs; %ld passes, %zu flows in %.3f s; "
              "binding digest 0x%016llx\n",
              w->size(), plain.passes, plain.flow_ms.size(),
              plain.elapsed_s,
              static_cast<unsigned long long>(plain.corpus_digest.value()));
  std::printf("process CPU time %.3f s over %.3f s of wall time (%.1f%%); "
              "typical pass %.3f s, mean pass %.3f s\n",
              plain.cpu_s, plain.elapsed_s,
              100.0 * plain.cpu_s / plain.elapsed_s, typical_pass_s(plain),
              plain.elapsed_s / static_cast<double>(plain.passes));
  for (size_t i = 0; i < w->size(); ++i) {
    std::printf("  design %-18s median %10.3f ms over %zu flows",
                w->label(i).c_str(), median(plain.item_ms[i]),
                plain.item_ms[i].size());
    if (t)
      std::printf("; traced %10.3f ms over %zu flows",
                  median(traced.item_ms[i]), traced.item_ms[i].size());
    std::printf("\n");
  }

  std::vector<Metric> out;
  if (!t) {
    const Tail tail =
        tail_percentile(plain.flow_ms, w->tail_max_percentile());
    // Per pass: flows that passed every check and simulated cycles.
    const double passes = static_cast<double>(plain.passes);
    const double pass_s = typical_pass_s(plain);
    const std::vector<Metric> e2e = {
        {"flows_per_s",
         static_cast<double>(plain.succeeded) / passes / pass_s, "1/s"},
        {"flow_ms.p50", median(plain.flow_ms), "ms"},
        {"flow_ms.tail", tail.value, "ms"},
        {"failed_frac", counter.failed_frac(), "ratio"},
        {"muxes_merged", static_cast<double>(plain.muxes_merged),
         "count"},
        {"regs_used", static_cast<double>(plain.regs_used), "count"},
        {"sim_cycles_per_s",
         static_cast<double>(plain.sim_cycles) / passes / pass_s, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median(setup_times), "s"},
    };
    std::printf("end-to-end metrics:\n");
    char note[128];
    for (const Metric& m : e2e) {
      note[0] = '\0';
      if (m.name == "flow_ms.tail")
        std::snprintf(note, sizeof note, "p%g, %d of %d samples beyond%s",
                      tail.percentile, tail.beyond, tail.n,
                      tail.supported ? "" : " (too few samples: maximum)");
      else if (m.name == "failed_frac")
        std::snprintf(note, sizeof note, "%ld of %ld flows", counter.failed(),
                      counter.attempted());
      else if (m.name == "setup_s")
        std::snprintf(note, sizeof note, "median of %zu set-ups",
                      setup_times.size());
      print_metric(m, note);
      // failed_frac is 0 on a correct run, so it is printed but the result
      // line carries failures as the attempted/failed counts instead.
      if (m.name != "failed_frac") out.push_back(m);
    }
  } else {
    const double plain_ms = plain.elapsed_s * 1e3 /
                            static_cast<double>(plain.flow_ms.size());
    const double traced_ms =
        traced.elapsed_s * 1e3 / static_cast<double>(traced.flow_ms.size());
    std::printf("tracing overhead: %+.2f%% per flow (%.3f ms traced over %zu "
                "flows, %.3f ms untraced over %zu flows)\n",
                100.0 * (traced_ms / plain_ms - 1.0), traced_ms,
                traced.flow_ms.size(), plain_ms, plain.flow_ms.size());
    const std::vector<double> cov = tracer.flow_coverage();
    if (!cov.empty()) {
      double sum = 0;
      for (double c : cov) sum += c;
      std::printf("span coverage of flow wall time: min %.4f, mean %.4f over "
                  "%zu flows\n",
                  *std::min_element(cov.begin(), cov.end()),
                  sum / static_cast<double>(cov.size()), cov.size());
    }
    std::printf("decomposition of allocate(): %ld of %ld allocations "
                "reproduce the facade's binding%s\n",
                matched, compared,
                matched == compared ? "" : " (core sub-spans marked stale)");
    print_layer_shares(tracer);
    std::printf("per-layer metrics (times include set-up spans; shares are "
                "of timed flow wall time):\n");
    for (const Metric& m : layer_metrics(tracer, matched, compared)) {
      print_metric(m, reported_only(m.name) ? "(not in the result line)" : "");
      if (!reported_only(m.name)) out.push_back(m);
    }
    if (!args.trace_out.empty()) {
      std::ofstream f(args.trace_out);
      tracer.write_json(f);
      if (!f) {
        std::fprintf(stderr, "flowbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::printf("trace written to %s (%zu spans)\n", args.trace_out.c_str(),
                  tracer.spans().size());
    }
  }
  std::printf("%s\n", result_json(correct, counter.attempted(),
                                  counter.failed(), out)
                          .c_str());
  return 0;
}
