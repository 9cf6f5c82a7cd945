#include "datapath/event_sim.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "cdfg/eval.h"
#include "util/rng.h"

namespace salsa {

namespace {

// A lowered endpoint: where a read finds its value in the live state.
struct Src {
  Endpoint::Kind kind = Endpoint::Kind::kConstPort;
  int64_t id = 0;  // register / FU / input-port index, or the constant itself
};

// An FU operation start. Its result goes to inflight_[start index] and is
// copied to the FU output by the landing list of step + delay - 1.
struct Start {
  FuId fu;
  OpKind op;
  bool binary;
  Src in0, in1;
};

// One control step, lowered to straight-line lists in the reference
// engine's sub-phase order:
//   * starts read operands against the state as of the previous step's edge;
//   * samples read registers before this step's edge;
//   * passes read pin 0 before this step's landings, then land;
//   * multi-cycle results land at the FU outputs;
//   * loads read registers pre-edge and FU outputs post-landing, then latch.
// Passes and loads evaluate into one scratch buffer before they apply, so
// two transfers at one step never see each other's new value — the
// reference's `pre` snapshot, without the copy.
struct StepPlan {
  std::vector<int> starts, lands;                   // indices into starts_
  std::vector<std::pair<int, RegId>> samples;       // (output index, reg)
  std::vector<std::pair<FuId, Src>> passes;
  std::vector<std::pair<RegId, Src>> loads;
};

class CompiledSim {
 public:
  CompiledSim(const Netlist& nl, std::span<const std::vector<int64_t>> inputs,
              std::span<const int64_t> initial_states, int iterations)
      : nl_(nl),
        inputs_(inputs),
        g_(nl.binding().prob().cdfg()),
        iterations_(iterations) {
    SALSA_CHECK_MSG(static_cast<int>(inputs.size()) >= iterations,
                    "simulate_events: not enough input vectors");
    compile();
    regs_ = initial_register_image(nl, inputs, initial_states);
    const size_t nfu = static_cast<size_t>(nl.binding().prob().fus().size());
    fu_out_.assign(nfu, 0);
    fu_has_.assign(nfu, 0);
  }

  SimResult run(SimTrace* trace, EventSimStats* stats) {
    SimResult result;
    result.outputs.assign(static_cast<size_t>(iterations_),
                          std::vector<int64_t>(g_.output_nodes().size(), 0));
    for (int64_t it = 0; it < iterations_; ++it) {
      // Input ports carry the *next* iteration's values; a boundary load
      // past the last provided vector holds its register.
      const bool next_ok = it + 1 < static_cast<int64_t>(inputs_.size());
      auto& out = result.outputs[static_cast<size_t>(it)];
      for (const StepPlan& st : plan_) {
        for (int i : st.starts) {
          const Start& s = starts_[static_cast<size_t>(i)];
          const int64_t v0 = read(s.in0, it);
          inflight_[static_cast<size_t>(i)] =
              s.binary ? apply_op(s.op, v0, read(s.in1, it)) : v0;
        }
        for (const auto& [k, r] : st.samples)
          out[static_cast<size_t>(k)] = regs_[static_cast<size_t>(r)];
        for (size_t i = 0; i < st.passes.size(); ++i)
          scratch_[i] = read(st.passes[i].second, it);
        for (size_t i = 0; i < st.passes.size(); ++i)
          set_fu(st.passes[i].first, scratch_[i]);
        for (int i : st.lands)
          set_fu(starts_[static_cast<size_t>(i)].fu,
                 inflight_[static_cast<size_t>(i)]);
        for (size_t i = 0; i < st.loads.size(); ++i) {
          const auto& [r, src] = st.loads[i];
          scratch_[i] = src.kind == Endpoint::Kind::kInPort && !next_ok
                            ? regs_[static_cast<size_t>(r)]
                            : read(src, it);
        }
        for (size_t i = 0; i < st.loads.size(); ++i) {
          int64_t& reg = regs_[static_cast<size_t>(st.loads[i].first)];
          if (reg == scratch_[i]) continue;
          if (event_sim_hooks::drop_load_after > 0 &&
              ++event_sim_hooks::load_count ==
                  event_sim_hooks::drop_load_after) {
            event_sim_hooks::drop_load_after = 0;  // one-shot lost update
            continue;
          }
          reg = scratch_[i];
        }
        if (trace != nullptr) trace->regs.push_back(regs_);
      }
    }
    if (stats != nullptr) {
      stats->slots = slots_;
      stats->firings = slots_ * static_cast<long>(iterations_);
    }
    return result;
  }

 private:
  void compile() {
    const AllocProblem& prob = nl_.binding().prob();
    const HwSpec& hw = prob.sched().hw();
    const int L = prob.sched().length();
    const int nfu = prob.fus().size();
    plan_.assign(static_cast<size_t>(L), {});

    port_of_.assign(static_cast<size_t>(g_.num_nodes()), -1);
    const auto input_nodes = g_.input_nodes();
    for (size_t i = 0; i < input_nodes.size(); ++i)
      port_of_[static_cast<size_t>(input_nodes[i])] = static_cast<int>(i);

    // Static (FU, step) mask of executing and landing steps. A result
    // lands at step a.step + d - 1 of EVERY iteration (the schedule keeps
    // finish steps inside the period), so the reference's dynamic fresh[]
    // test is a static predicate — that is what makes pass slots
    // compile-time.
    std::vector<char> busy(static_cast<size_t>(nfu) * static_cast<size_t>(L),
                           0);
    auto at = [L](FuId f, int t) {
      return static_cast<size_t>(f) * static_cast<size_t>(L) +
             static_cast<size_t>(t);
    };
    for (const FuAction& a : nl_.fu_actions()) {
      const Node& nd = g_.node(a.node);
      const int d = hw.delay(nd.kind);
      SALSA_CHECK_MSG(a.step + d - 1 < L,
                      "simulate_events: result lands outside the period");
      for (int s = a.step; s < a.step + hw.occupancy(nd.kind); ++s)
        busy[at(a.fu, s)] = 1;
      busy[at(a.fu, a.step + d - 1)] = 1;  // a landing also blocks a pass
      const bool binary = nd.kind != OpKind::kNop;
      const int id = static_cast<int>(starts_.size());
      starts_.push_back(Start{a.fu, nd.kind, binary,
                              route(Pin::Kind::kFuIn0, a.fu, a.step),
                              binary ? route(Pin::Kind::kFuIn1, a.fu, a.step)
                                     : Src{}});
      plan_[static_cast<size_t>(a.step)].starts.push_back(id);
      plan_[static_cast<size_t>(a.step + d - 1)].lands.push_back(id);
    }
    inflight_.assign(starts_.size(), 0);

    // Pass-throughs: forward pin 0 at every (FU, step) where the unit is
    // neither executing nor landing a result and the pin is routed.
    for (FuId f = 0; f < nfu; ++f)
      for (int t = 0; t < L; ++t) {
        if (busy[at(f, t)]) continue;
        const auto src = nl_.source_of(Pin{Pin::Kind::kFuIn0, f}, t);
        if (src.has_value())
          plan_[static_cast<size_t>(t)].passes.emplace_back(f, lower(*src));
      }

    for (const RegLoad& ld : nl_.reg_loads())
      plan_[static_cast<size_t>(ld.step)].loads.emplace_back(ld.reg,
                                                             lower(ld.src));

    const auto output_nodes = g_.output_nodes();
    for (const OutSample& o : nl_.out_samples()) {
      const auto k = std::find(output_nodes.begin(), output_nodes.end(),
                               o.node) -
                     output_nodes.begin();
      plan_[static_cast<size_t>(o.step)].samples.emplace_back(
          static_cast<int>(k), o.reg);
    }

    size_t width = 0;
    for (const StepPlan& st : plan_) {
      width = std::max({width, st.passes.size(), st.loads.size()});
      slots_ += static_cast<long>(st.starts.size() + st.samples.size() +
                                  st.passes.size() + st.loads.size());
    }
    scratch_.assign(width, 0);
  }

  Src route(Pin::Kind pin, FuId f, int step) const {
    const auto src = nl_.source_of(Pin{pin, f}, step);
    SALSA_CHECK_MSG(src.has_value(), "operand pin has no route");
    return lower(*src);
  }

  Src lower(const Endpoint& e) const {
    switch (e.kind) {
      case Endpoint::Kind::kConstPort:
        return Src{e.kind, g_.node(e.id).cvalue};
      case Endpoint::Kind::kInPort:
        return Src{e.kind, port_of_[static_cast<size_t>(e.id)]};
      case Endpoint::Kind::kRegOut:
      case Endpoint::Kind::kFuOut:
        return Src{e.kind, e.id};
    }
    fail("bad endpoint");
  }

  int64_t read(const Src& s, int64_t iter) const {
    switch (s.kind) {
      case Endpoint::Kind::kRegOut:
        return regs_[static_cast<size_t>(s.id)];
      case Endpoint::Kind::kConstPort:
        return s.id;
      case Endpoint::Kind::kInPort:
        SALSA_CHECK_MSG(iter + 1 < static_cast<int64_t>(inputs_.size()),
                        "input port read past the provided iterations");
        return inputs_[static_cast<size_t>(iter + 1)]
                      [static_cast<size_t>(s.id)];
      case Endpoint::Kind::kFuOut:
        SALSA_CHECK_MSG(fu_has_[static_cast<size_t>(s.id)] != 0,
                        "FU output read while no result is present");
        return fu_out_[static_cast<size_t>(s.id)];
    }
    fail("bad endpoint");
  }

  void set_fu(FuId f, int64_t v) {
    fu_out_[static_cast<size_t>(f)] = v;
    fu_has_[static_cast<size_t>(f)] = 1;
  }

  const Netlist& nl_;
  std::span<const std::vector<int64_t>> inputs_;
  const Cdfg& g_;
  const int iterations_;

  std::vector<StepPlan> plan_;
  std::vector<Start> starts_;
  std::vector<int> port_of_;
  long slots_ = 0;

  std::vector<int64_t> regs_, fu_out_, inflight_, scratch_;
  std::vector<char> fu_has_;
};

}  // namespace

SimResult simulate_events(const Netlist& nl,
                          std::span<const std::vector<int64_t>> inputs,
                          std::span<const int64_t> initial_states,
                          int iterations, SimTrace* trace,
                          EventSimStats* stats) {
  CompiledSim sim(nl, inputs, initial_states, iterations);
  return sim.run(trace, stats);
}

std::string diff_sim_engines(const Netlist& nl,
                             std::span<const std::vector<int64_t>> inputs,
                             std::span<const int64_t> initial_states,
                             int iterations) {
  SimTrace full_trace, event_trace;
  const SimResult full =
      simulate(nl, inputs, initial_states, iterations, &full_trace);
  const SimResult event =
      simulate_events(nl, inputs, initial_states, iterations, &event_trace);
  const Cdfg& g = nl.binding().prob().cdfg();
  std::ostringstream os;
  for (int i = 0; i < iterations; ++i) {
    const auto& want = full.outputs[static_cast<size_t>(i)];
    const auto& got = event.outputs[static_cast<size_t>(i)];
    for (size_t k = 0; k < want.size(); ++k)
      if (want[k] != got[k]) {
        os << "iteration " << i << ", output '"
           << g.node(g.output_nodes()[k]).name
           << "': compiled=" << got[k] << " full-eval=" << want[k];
        return os.str();
      }
  }
  if (full_trace.regs.size() != event_trace.regs.size()) {
    os << "trace lengths differ: compiled=" << event_trace.regs.size()
       << " full-eval=" << full_trace.regs.size();
    return os.str();
  }
  for (size_t gs = 0; gs < full_trace.regs.size(); ++gs)
    for (size_t r = 0; r < full_trace.regs[gs].size(); ++r)
      if (full_trace.regs[gs][r] != event_trace.regs[gs][r]) {
        os << "global step " << gs << ", r" << r
           << ": compiled=" << event_trace.regs[gs][r]
           << " full-eval=" << full_trace.regs[gs][r];
        return os.str();
      }
  return {};
}

std::string random_engine_diff(const Netlist& nl, int iterations,
                               uint64_t seed) {
  const Cdfg& g = nl.binding().prob().cdfg();
  Rng rng(seed);
  auto rnd = [&] { return static_cast<int64_t>(rng.next() % 2001) - 1000; };
  std::vector<std::vector<int64_t>> inputs(
      static_cast<size_t>(iterations) + 1,
      std::vector<int64_t>(g.input_nodes().size(), 0));
  for (auto& vec : inputs)
    for (auto& v : vec) v = rnd();
  std::vector<int64_t> states(g.state_nodes().size(), 0);
  for (auto& v : states) v = rnd();
  return diff_sim_engines(nl, inputs, states, iterations);
}

}  // namespace salsa
