// Top-level allocation API: constructive initial allocation followed by
// iterative improvement (with optional outer restarts — the paper notes
// multiple runs are sometimes needed due to the randomised search), then the
// mux-merging post-pass. This is the facade examples and benchmarks use.
#pragma once

#include <cstdint>
#include <vector>

#include "core/improver.h"
#include "core/initial.h"
#include "core/mux_merge.h"
#include "util/thread_pool.h"

namespace salsa {

/// How much self-checking allocate() performs (the knob the SalsaCheck
/// subsystem hangs off — see src/analysis/auditor.h):
///   kOff   — no checks at all: the caller owns result validation (release
///            hot paths that would otherwise pay an O(design) check_legal()
///            per call they never look at);
///   kFinal — check_legal() on the winning binding only. The default, and
///            exactly the unconditional check previous versions hardwired;
///   kAudit — move transactions of every restart run under the invariant
///            auditor (binding verification, connection-index rebuild
///            cross-check, from-scratch cost comparison, undo digests),
///            plus the final check. On designs above the auditor's size
///            threshold (AuditorOptions::sample_threshold_ops) the
///            O(design) battery is sampled — every ops/64-th transaction —
///            so audited searches stay usable at 10k+ ops; small designs
///            still audit every transaction. Orders of magnitude slower
///            than unchecked either way; meant for tests, CI and bug
///            hunts, not production runs;
///   kAuditFull — kAudit with sampling disabled: every transaction of any
///            design pays the full battery. O(design) per move — minutes
///            per thousand moves at 10k ops — but exact, for pinning down
///            which transaction first corrupts state.
enum class CheckMode : uint8_t { kOff, kFinal, kAudit, kAuditFull };

/// Default check mode: the SALSA_CHECK environment variable when set
/// ("0"/"off" → kOff, "final" → kFinal, "1"/"on"/"audit" → kAudit,
/// "full" → kAuditFull), otherwise kFinal. `SALSA_CHECK=1 ctest` therefore
/// replays every allocation in the test suite under the (size-sampled)
/// auditor without a rebuild; SALSA_CHECK=full forces the exact
/// every-transaction audit regardless of design size.
CheckMode default_check_mode();

/// Default restart patience: the SALSA_RESTART_PATIENCE environment
/// variable when set ("0"/"off" → no early stop, a positive count → stop
/// after that many consecutive non-improving restarts), otherwise 0.
int default_restart_patience();

struct AllocatorOptions {
  ImproveParams improve;
  InitialOptions initial;
  /// Independent restarts (fresh initial allocation + search seed); the best
  /// result wins. Seed streams are SplitMix64-derived per restart
  /// (util/rng.h:derive_seed), so restart r's trajectory is a function of
  /// (user seeds, r) only — never of which thread ran it.
  int restarts = 1;
  /// Early restart stopping: stop launching restarts once `patience`
  /// consecutive restarts (in restart-index order) failed to improve the
  /// best cost; at least patience + 1 restarts always run. 0 = auto: the
  /// SALSA_RESTART_PATIENCE environment variable, else no early stop;
  /// negative = never stop early regardless of the environment. The stop
  /// index is a function of the restart outcomes in restart order alone —
  /// restarts are computed in thread-sized waves, and every outcome past
  /// the stop index is discarded before the best-of reduction — so results
  /// stay byte-identical for any thread count.
  int restart_patience = 0;
  /// Restart-level parallelism. Results are byte-identical for every thread
  /// count: each restart owns its seed streams and SearchEngine, and the
  /// best-of reduction (lowest cost, then lowest restart index) plus the
  /// stats accumulation run in restart order on the calling thread. Traced
  /// runs (improve.trace != nullptr) are forced sequential so the JSONL
  /// stream stays well-formed.
  Parallelism parallelism;
  /// When the constructive start is contiguous, first converge within the
  /// traditional move set, then let the extended moves strip interconnect
  /// from that allocation. Disable for the pure-extended-search ablation.
  bool warm_start_traditional = true;
  /// Self-checking level (see CheckMode above). Defaults to the SALSA_CHECK
  /// environment variable, else kFinal.
  CheckMode checked = default_check_mode();
  /// Audit throttle under kAudit: fully audit every Nth transaction
  /// (AuditorOptions::every). 1 = every transaction.
  long audit_every = 1;
  /// When non-null, filled with one FNV-1a digest per restart (of that
  /// restart's improved binding), in restart order — the per-restart digest
  /// stream src/analysis/determinism.h compares across thread counts.
  std::vector<uint64_t>* restart_digests = nullptr;
};

struct AllocationResult {
  Binding binding;
  CostBreakdown cost;      ///< point-to-point cost before mux merging
  MuxMergeResult merging;  ///< greedy mux-merge outcome
  /// Accumulated over restarts: each restart's warm-start and main-phase
  /// stats are merged first, then the per-restart totals are summed in
  /// restart order (deterministic under any parallelism).
  ImproveStats stats;
};

/// Allocates the problem with the extended (SALSA) binding model.
AllocationResult allocate(const AllocProblem& prob,
                          const AllocatorOptions& opts = {});

}  // namespace salsa
