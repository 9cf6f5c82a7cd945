// Cycle-accurate simulation of an allocated datapath. The simulator executes
// the netlist's routing tables step by step — registers latch at step edges,
// FUs read their input pins at operation start and deliver results after
// their delay, pass-throughs forward pin 0 — and samples the output ports.
// Comparing the streams against cdfg/eval.h on random stimuli is the
// project's dynamic correctness check for allocations.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "datapath/netlist.h"

namespace salsa {

struct SimResult {
  /// outputs[iteration][k] — k-th output node (order of cdfg.output_nodes()).
  std::vector<std::vector<int64_t>> outputs;
};

/// Optional cycle trace: register contents at the end of every global step
/// (after the step-edge latches). Feed to datapath/vcd.h for waveforms.
struct SimTrace {
  /// regs[gstep][r] — register r after the edge ending global step gstep.
  std::vector<std::vector<int64_t>> regs;
};

/// Which simulation engine to run. kFullEval is the always-reevaluate
/// reference (this file); kEventDriven is the compiled static-slot engine
/// (datapath/event_sim.h; the enumerator keeps the name of the event-queue
/// engine it replaced). Both produce identical results by contract.
enum class SimEngine { kFullEval, kEventDriven };

/// The register image "before time zero": cells occupying step 0 hold
/// initial states, iteration-0 inputs, or zeros (boundary-born dead values).
/// Shared input boundary of both simulation engines so the differential
/// contract starts from one well-defined state.
std::vector<int64_t> initial_register_image(
    const Netlist& nl, std::span<const std::vector<int64_t>> inputs,
    std::span<const int64_t> initial_states);

/// Simulates `iterations` loop iterations. `inputs[i]` provides the input
/// values of iteration i (order of cdfg.input_nodes()); `initial_states`
/// seeds the state nodes (order of cdfg.state_nodes(); empty = zeros).
/// When `trace` is non-null, per-step register snapshots are recorded.
SimResult simulate(const Netlist& nl,
                   std::span<const std::vector<int64_t>> inputs,
                   std::span<const int64_t> initial_states, int iterations,
                   SimTrace* trace = nullptr);

/// Runs the datapath against the behavioural evaluator on the same stimuli.
/// Returns an empty string when all output streams match, else a
/// description of the first mismatch. For loop designs the first
/// `pipeline_slack` iterations... (none here: the schedule is non-overlapped,
/// so streams must match from iteration 0).
std::string compare_with_reference(const Netlist& nl,
                                   std::span<const std::vector<int64_t>> inputs,
                                   std::span<const int64_t> initial_states,
                                   int iterations);

/// Convenience: random-stimulus equivalence check.
std::string random_equivalence_check(const Netlist& nl, int iterations,
                                     uint64_t seed);

}  // namespace salsa
