// The flow benchmark's workloads: seeded corpora built in set-up, and the
// user-facing flow (parse → schedule_min_fu → allocate → Netlist →
// random_equivalence_check → to_verilog, as examples/salsa_cli.cpp runs it)
// or the part of it each workload times. Every library call is pinned to one
// thread and to explicit options, so nothing here reads the environment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/allocator.h"
#include "trace.h"

namespace flowbench {

/// What one flow produced, for the run's correctness and quality metrics.
struct FlowOutput {
  std::string error;     ///< "" when every output check passed
  uint64_t digest = 0;   ///< digest_binding of the winning binding
  int muxes_merged = 0;  ///< equivalent 2-1 muxes after merging
  int regs_used = 0;
  long sim_cycles = 0;   ///< datapath control steps the sim check simulated
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// (Re)builds the corpus from `seed`; the same seed gives the same
  /// corpus. Library calls made here are traced when `t` is non-null.
  virtual void setup(uint64_t seed, Tracer* t) = 0;
  virtual size_t size() const = 0;
  virtual std::string label(size_t i) const = 0;
  /// Runs flow `i` and checks its outputs. Throws on library errors.
  virtual FlowOutput run(size_t i, Tracer* t) const = 0;
  /// Digests of the allocations made in set-up, with the trace flow each
  /// ran in (-1 when untraced); empty for workloads that allocate per flow.
  struct SetupAllocation {
    uint64_t digest;
    int flow;
  };
  virtual std::vector<SetupAllocation> setup_allocations() const { return {}; }
  /// The highest percentile flow_ms.tail may report: the ladder rung that
  /// still has ten samples beyond it when the host runs at its slowest
  /// measured speed (so every run reports the same rung).
  virtual int tail_max_percentile() const = 0;
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

/// Names of the environment variables that would otherwise change what the
/// measured program does (thread count, check mode, speculation, restart
/// patience) and are set; the benchmark refuses to start when any is.
std::vector<std::string> environment_overrides();

/// The salsa_cli allocator defaults with every environment-defaulted option
/// set explicitly: one thread, CheckMode::kFinal, speculation off, no
/// restart patience.
salsa::AllocatorOptions pinned_options();

/// allocate() decomposed into its public layers, in allocate()'s order —
/// initial_allocation (with the strict contiguous retries), improve (warm
/// start, then main search), check_legal, merge_muxes — each in its own
/// span under a "core.allocate" span, with the layer counters added to `t`.
/// Supports the single-restart options pinned_options() produces.
salsa::AllocationResult allocate_traced(const salsa::AllocProblem& prob,
                                        const salsa::AllocatorOptions& opts,
                                        Tracer& t);

/// The independent output checks on an allocation: verify() finds no
/// violation and evaluate_cost() equals the reported cost. "" when both
/// hold, else the first problem.
std::string check_allocation(const salsa::AllocationResult& res);

}  // namespace flowbench
