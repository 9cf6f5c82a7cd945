// Compiled static-slot simulation of an allocated datapath. The binding is
// statically scheduled: every register load, FU operation, output sample
// and pass-through route is fixed per control step. So where the full-eval
// engine (datapath/simulator.h) rescans every FU action, register load and
// pass-through candidate on every global step — O(netlist) per step, with a
// per-FU scan that makes large generated designs quadratic — this engine
// lowers the netlist once into per-step straight-line lists (FU starts,
// output samples, pass-throughs, landings, register loads) and replays them
// every period. Semantics are pinned signal-for-signal and cycle-for-cycle
// to the full-eval engine: the two must produce identical output streams
// AND identical per-step register traces (hence identical VCD dumps) on
// every netlist — diff_sim_engines() is that contract, and the differential
// harness (tests/test_sim_differential.cpp, salsa_audit --sim) enforces it
// the same way verify.cpp backs the bitplanes. (The header keeps its
// historical name: this engine replaced an event-queue simulator.)
#pragma once

#include <span>
#include <string>
#include <vector>

#include "datapath/simulator.h"

namespace salsa {

// Mutation hooks (salsa_audit --break-sim-load): when armed, the Nth
// register-load apply that would change its register is dropped — a lost
// register update, so the register keeps its stale value and every later
// read of it is wrong. The differential harness must report the resulting
// trace divergence. load_count advances only while armed, so callers arm
// relative to its current value; a hook left nonzero after a run means the
// mutation never fired and proved nothing.
namespace event_sim_hooks {
inline long drop_load_after = 0;
inline long load_count = 0;
}  // namespace event_sim_hooks

/// Counters the compiled engine reports alongside its results; the
/// wall-clock record (salsa_audit --sim-wall) and EXPERIMENTS.md quote them.
struct EventSimStats {
  long slots = 0;    ///< compiled per-period entries (netlist size proxy)
  long firings = 0;  ///< entries executed: always slots x iterations
};

/// Drop-in equivalent of simulate() on the compiled engine: same inputs
/// contract (inputs[i] feeds iteration i; the boundary load of the last
/// simulated iteration needs inputs[iterations] when present), same
/// SimResult/SimTrace shapes, identical values.
SimResult simulate_events(const Netlist& nl,
                          std::span<const std::vector<int64_t>> inputs,
                          std::span<const int64_t> initial_states,
                          int iterations, SimTrace* trace = nullptr,
                          EventSimStats* stats = nullptr);

/// The differential contract: runs both engines on the same stimuli and
/// compares every output value and every per-step register snapshot.
/// Returns "" when equivalent, else a description of the first divergence
/// (engine, global step, register/output, both values).
std::string diff_sim_engines(const Netlist& nl,
                             std::span<const std::vector<int64_t>> inputs,
                             std::span<const int64_t> initial_states,
                             int iterations);

/// Seeded random-stimulus differential (the shape of
/// random_equivalence_check, but compiled-vs-full-eval instead of
/// datapath-vs-evaluator).
std::string random_engine_diff(const Netlist& nl, int iterations,
                               uint64_t seed);

}  // namespace salsa
