// Incremental-cost search engine: the shared mutable state behind all
// move-based searches (improver, annealer, ILS, and the allocator facade).
//
// The engine owns a working Binding together with three derived structures
// kept consistent under move transactions:
//   * the FU/register Occupancy grid (so feasibility checks never rebuild
//     it per proposal);
//   * a refcounted connection index — a hash multiset of charged
//     (sink-pin, source-endpoint) pairs plus per-sink distinct-source
//     counts — from which `connections`, `muxes` and the weighted total
//     update in O(move footprint) instead of re-enumerating every routed
//     data flow of the design (what evaluate_cost does);
//   * per-FU and per-register use refcounts backing `fus_used`/`regs_used`.
//
// Move proposers mutate the binding through a transaction: `touch_op` /
// `touch_sto` record undo state for the touched unit and retire its
// connection uses and resource claims from the index *before* the mutation;
// `propose()` re-derives the touched footprint afterwards and returns the
// exact cost delta. The caller then either `commit()`s (keeps the move) or
// `rollback()`s (restores the saved units and the previous index state).
// Acceptance policies are therefore free of per-candidate Binding copies
// and full cost evaluations.
//
// The connection index lives in two FlatMap tables (util/flat_map.h):
// packed (sink, source) pair -> refcount and packed sink -> distinct-source
// count. A transaction never writes them before its decision: propose()
// nets the touched generators' old and new use lists in a scratch table,
// probes the shared tables read-only for the cost delta, and only stages
// the claim re-adds. commit() applies the netted uses and staged claims;
// rollback() drops them, restores the saved binding units, re-claims the
// touch-time releases from them, and replays a small undo journal (the
// per-segment write-key counts). The cost breakdown returns wholesale to
// its propose()-entry value.
//
// Consistency is guarded two ways: in !NDEBUG builds every commit
// cross-checks the incremental breakdown against a fresh evaluate_cost
// (SALSA_CHECK via matches_full_eval), and tests/test_incremental_cost.cpp
// replays thousands of randomized commit/rollback transactions against the
// full evaluator on several benchmarks.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cost.h"
#include "core/moves.h"
#include "util/fenwick.h"
#include "util/flat_map.h"

namespace salsa {

class SearchEngine;

/// Mutation-testing hooks for the segment-windowed transaction path
/// (salsa_audit --break-segment-window): when armed, the Nth windowed
/// claim re-add deliberately narrows its window by one segment on the
/// add side only — touch-time removals keep the full window — so the
/// occupancy grid, refcounts and connection index drift from the binding
/// and the audit wall must catch it. Process-wide cumulative counters,
/// armed relative to the current count (break_after = windowed_txns + N),
/// one-shot. No effect unless a test arms them.
namespace seg_window_hooks {
inline long break_claim_window_after = 0;  ///< 0 = disarmed
inline long windowed_txns = 0;  ///< cumulative windowed (non-whole) re-adds
}  // namespace seg_window_hooks

/// Transaction observer: the seam the SalsaCheck invariant auditor
/// (src/analysis/auditor.h) hooks into. The engine invokes the callbacks
/// around every move transaction; with no observer installed the cost is a
/// single null check per call site, so the hooks are compiled in always.
///
/// Callback order per proposal:
///   on_txn_begin   — propose() entered, binding still in its pre-move state
///   on_txn_abort   — no feasible instance found; binding must be untouched
///   on_commit      — the move was kept; `delta` is the incremental cost
///                    delta the engine reported for it
///   on_rollback    — the move was reverted; binding must be byte-identical
///                    to its pre-move state
/// Observers may inspect the engine (it is passed const) but must not drive
/// transactions on it from inside a callback.
class SearchObserver {
 public:
  virtual ~SearchObserver() = default;
  virtual void on_txn_begin(const SearchEngine&) {}
  virtual void on_txn_abort(const SearchEngine&) {}
  virtual void on_commit(const SearchEngine&, double /*delta*/) {}
  virtual void on_rollback(const SearchEngine&) {}
};

class SearchEngine {
 public:
  /// Builds the engine state from a legal, structurally complete binding
  /// (O(design), done once per search).
  explicit SearchEngine(const Binding& start);

  const Binding& binding() const { return b_; }
  const AllocProblem& prob() const { return b_.prob(); }
  /// Incrementally maintained occupancy — always consistent with binding().
  const Occupancy& occupancy() const { return occ_; }
  /// Incrementally maintained cost breakdown of binding().
  const CostBreakdown& cost() const { return cost_; }
  double total() const { return cost_.total; }

  // --- move transactions ----------------------------------------------
  /// Attempts one random move of `kind`. On a feasible instance the move is
  /// applied tentatively and the exact cost delta is returned; the caller
  /// must then commit() or rollback(). Returns nullopt when no feasible
  /// instance was found (no transaction is left open).
  std::optional<double> propose(MoveKind kind, Rng& rng);
  /// Keeps the proposed move. In !NDEBUG builds cross-checks the
  /// incremental breakdown against a fresh evaluate_cost.
  void commit();
  /// Reverts the proposed move: binding, occupancy and cost return exactly
  /// to their pre-propose state.
  void rollback();
  bool in_txn() const { return in_txn_; }

  /// Replaces the working binding (same AllocProblem) and rebuilds all
  /// derived state. O(design); used when a policy restarts from its best.
  void reset_to(const Binding& b);

  // --- mutation interface for move proposers ---------------------------
  // Must be called inside propose()'s move dispatch, before mutating the
  // unit, and only once the move is certain to succeed. The first touch of
  // a unit saves its undo state and retires its uses from the index.
  OpBind& touch_op(NodeId n);
  StorageBinding& touch_sto(int sid);
  /// Segment-windowed touch: the proposer promises to mutate only cells of
  /// segments [mlo, mhi] (and read_cell, which every touch covers). The
  /// engine extends the window one segment right — a reg change at mhi can
  /// retarget transfers and clear hold-vias at mhi+1 — and restricts the
  /// save/claim/normalize/recount walks to that interval; everything
  /// outside it is untouched by construction, so the windowed transaction
  /// produces cost integers identical to the whole-storage walk (the
  /// salsa_audit --segment differential proves it). Falls back to the
  /// whole-storage touch when segment windows are disabled. Repeated
  /// touches of one storage extend the window to the convex hull.
  StorageBinding& touch_sto(int sid, int mlo, int mhi);
  /// Read-retarget touch: only read_cell will be mutated — no cell, reg or
  /// via changes. Saves read_cell, retires the read generator and leaves
  /// claims, the write generator and the per-storage statistics alone (none
  /// of them read read_cell).
  StorageBinding& touch_sto_reads(int sid);

  /// Enables/disables the segment-windowed transaction path (default on).
  /// Off forces every touch through the whole-storage walk — the reference
  /// side of the salsa_audit --segment window-vs-whole differential.
  void set_segment_windows(bool on) { seg_windows_ = on; }
  bool segment_windows() const { return seg_windows_; }

  // Cached problem-side candidate tables for move proposers (equal to
  // cdfg().operations(), fus().of_class(c) and fus().pass_capable(), but
  // derived once per problem instead of allocated per proposal).
  const std::vector<NodeId>& operations() const { return statics_->ops; }
  const std::vector<FuId>& fus_of_class(FuClass c) const {
    return statics_->fus_by_class[static_cast<size_t>(c)];
  }
  const std::vector<FuId>& pass_capable_fus() const {
    return statics_->pass_fus;
  }
  const std::vector<NodeId>& ops_finishing_at(int step) const {
    return statics_->finishing_at[static_cast<size_t>(step)];
  }
  FuClass op_class(NodeId n) const {
    return statics_->op_class[static_cast<size_t>(n)];
  }
  int op_occupancy(NodeId n) const {
    return statics_->op_occ[static_cast<size_t>(n)];
  }
  const std::vector<NodeId>& ops_of_class(FuClass c) const {
    return statics_->ops_by_class[static_cast<size_t>(c)];
  }
  const std::vector<NodeId>& commutative_ops() const {
    return statics_->commutative_ops;
  }
  const std::vector<FuId>& single_cycle_pass_fus() const {
    return statics_->pass_fus_1cyc;
  }
  const std::vector<uint64_t>& single_cycle_pass_fu_mask() const {
    return statics_->pass_fus_1cyc_mask;
  }
  const std::vector<std::pair<int, int>>& live_at_step(int step) const {
    return statics_->live_at[static_cast<size_t>(step)];
  }

  // Incrementally maintained per-storage binding statistics (refreshed at
  // commit, so they always describe the committed binding). Move
  // proposers use them to skip storages that cannot contribute a candidate
  // — e.g. a storage with num_cells == len has no multi-cell segment — and
  // to map a uniform cell draw through prefix sums instead of materializing
  // the full cell list. They only prune provably-empty scans, so candidate
  // sets and RNG draws are unchanged.
  /// Total register cells bound across all segments of storage `sid`.
  int num_cells(int sid) const { return sto_cells_[static_cast<size_t>(sid)]; }
  /// Total cells across all storages.
  int total_cells() const { return total_cells_; }
  /// Cells of `sid` routed through a pass-through FU.
  int num_vias(int sid) const { return sto_vias_[static_cast<size_t>(sid)]; }
  /// Direct (no-via) inter-register transfer cells of `sid` — the bindable
  /// candidates of the pass-through binder.
  int num_bare_transfers(int sid) const {
    return sto_xfers_[static_cast<size_t>(sid)];
  }

  // --- O(log) candidate selection -------------------------------------
  // Fenwick-backed totals and rank selects over the per-storage statistics
  // above (plus leaf-cell and fat-read counts maintained the same way).
  // Each *_storage_at(idx, rem) maps a uniform draw over the total to the
  // storage owning rank `idx` of the (sid-ascending) candidate enumeration
  // and the rank within that storage — the proposer then walks only the
  // selected storage. Totals and per-storage counts equal what the old
  // full scans would have counted, so candidate sets, RNG draw bounds and
  // trajectories are unchanged; only the walk over non-owning storages is
  // gone.
  int total_vias() const { return fw_vias_.total(); }
  int total_bare_transfers() const { return fw_xfers_.total(); }
  /// Leaf cells of multi-cell segments — the value-merge candidates.
  int total_leaves() const { return fw_leaves_.total(); }
  /// Reads whose segment holds >= 2 cells — the read-retarget candidates.
  int total_fat_reads() const { return fw_fat_reads_.total(); }
  int cell_storage_at(int idx, int* rem) const {
    return fw_cells_.select(idx, rem);
  }
  int via_storage_at(int idx, int* rem) const {
    return fw_vias_.select(idx, rem);
  }
  int xfer_storage_at(int idx, int* rem) const {
    return fw_xfers_.select(idx, rem);
  }
  int leaf_storage_at(int idx, int* rem) const {
    return fw_leaves_.select(idx, rem);
  }
  int fat_read_storage_at(int idx, int* rem) const {
    return fw_fat_reads_.select(idx, rem);
  }
  /// Cells bound across all storages live at `step` — the segment-exchange
  /// candidate count at that step.
  int live_cells_at(int step) const {
    return step_cells_[static_cast<size_t>(step)].total();
  }
  /// Rank `idx` of the step's cell enumeration (live_at_step order, then
  /// position within the segment): returns {position in live_at_step(step),
  /// cell position within that segment}.
  std::pair<int, int> live_cell_at(int step, int idx) const {
    int pos = 0;
    const int p = step_cells_[static_cast<size_t>(step)].select(idx, &pos);
    return {p, pos};
  }
  /// Maps rank `*idx` of storage `sid`'s (seg, pos)-lexicographic cell
  /// enumeration to its segment, leaving the position within that segment
  /// in `*idx`. Walks the flat per-segment count mirror — the same counts
  /// the inner cell vectors report, without touching a vector header per
  /// segment.
  int seg_of_cell_rank(int sid, int* idx) const {
    const int off = statics_->sto_seg_off[static_cast<size_t>(sid)];
    int seg = 0;
    while (*idx >= seg_size_[static_cast<size_t>(off + seg)])
      *idx -= seg_size_[static_cast<size_t>(off + seg++)];
    return seg;
  }
  /// Pure cache hints for the per-storage transaction structures a touch
  /// of `sid` will walk (gen caches, save buffer, lifetime row). Proposers
  /// issue them as soon as a candidate storage is known, so the scattered
  /// per-storage lines load in parallel with the remaining legality work
  /// instead of stalling the touch/refresh path serially. Hints only — no
  /// side effects, so candidate sets and trajectories are untouched.
  void prefetch_sto_txn(int sid) const {
    __builtin_prefetch(&gen_keys_[static_cast<size_t>(gen_reads(sid))]);
    __builtin_prefetch(&gen_keys_[static_cast<size_t>(gen_writes(sid))]);
    __builtin_prefetch(&sto_save_[static_cast<size_t>(sid)]);
    __builtin_prefetch(&b_.prob().lifetimes().storage(sid));
  }

  /// Operations currently bound to FU `f` (all of f's class).
  int ops_on_fu(FuId f) const {
    return static_cast<int>(fu_ops_[static_cast<size_t>(f)].size());
  }
  /// The idx-th operation (0-based, ops_of_class order) of class `c` NOT
  /// bound to `f` — the fu-exchange partner a full scan would have listed
  /// at that index. O(log^2) binary search over f's sorted position list.
  NodeId class_op_excluding_fu(FuClass c, FuId f, int idx) const;

  /// Total slot-array reallocations across the engine's index tables and
  /// transaction scratch maps — the no-rehash-in-steady-state pin (the
  /// constructor pre-reserves from problem dimensions).
  size_t index_rehashes() const {
    return pair_refs_.rehashes() + sink_sources_.rehashes() +
           txn_delta_.rehashes() + sink_delta_.rehashes();
  }

  // --- observability ----------------------------------------------------
  /// Per-move-kind attempted/accepted/delta counters over the engine's
  /// lifetime (includes every proposal routed through it, e.g. ILS kicks).
  const std::array<MoveKindStats, kNumMoveKinds>& kind_stats() const {
    return kind_stats_;
  }
  /// Proposals that found a feasible instance (committed or rolled back).
  long steps() const { return steps_; }

  /// Streams one JSONL record per decided proposal:
  ///   {"step":N,"move":"F2:fu-move","delta":-3,"accepted":true,...}
  /// nullptr disables tracing.
  void set_trace(std::ostream* os) { trace_ = os; }
  /// Adds a policy-side field (e.g. temperature or remaining uphill budget)
  /// to subsequent trace records; nullptr name drops the field.
  void set_trace_aux(const char* name, double value) {
    aux_name_ = name;
    aux_ = value;
  }

  /// True iff the incremental breakdown equals a fresh evaluate_cost.
  bool matches_full_eval() const;

  /// True iff every derived structure — the refcounted connection index
  /// (pair refcounts and per-sink distinct-source counts), the FU/register
  /// use refcounts, the occupancy grid and busy bitplanes, and the cost
  /// breakdown — equals that of an engine rebuilt from scratch off the
  /// current binding. O(design); the checked mode's per-transaction
  /// cross-check. On mismatch, appends a description of the first
  /// divergence to `why` when non-null.
  bool index_matches_rebuild(std::string* why = nullptr) const;

  /// Packed-vs-scalar occupancy differential: true iff the incrementally
  /// maintained busy bitplanes agree bit-for-bit with the identity grids
  /// (Occupancy::planes_match_grids). Much cheaper than a full rebuild —
  /// the per-commit check of salsa_audit --bitplane.
  bool occupancy_planes_match(std::string* why = nullptr) const {
    return occ_.planes_match_grids(why);
  }

  /// Installs (or clears, with nullptr) the transaction observer. The
  /// engine does not own it; it must outlive the engine or be cleared.
  void set_observer(SearchObserver* obs) { observer_ = obs; }
  SearchObserver* observer() const { return observer_; }

  /// Test-only fault injection: the next rollback() skips restoring the
  /// touched units' saved state — a deliberately broken undo. Exists so the
  /// auditor's digest check can be proven to catch silent state drift (the
  /// mutation test in tests/test_fuzz_moves.cpp, documented in DESIGN.md);
  /// never set outside tests.
  void inject_broken_undo_for_test() { break_next_undo_ = true; }

 private:
  struct TouchedOp {
    NodeId n;
    OpBind saved;
  };
  /// Static (problem-side) description of which use generators an
  /// operation's binding feeds. Generator ids: 2*sid = reads of storage
  /// sid, 2*sid+1 = writes of storage sid, 2*S+n = constant operands of
  /// node n.
  struct OpInfo {
    std::vector<int> gens;
    bool has_const_ins = false;
  };
  /// Immutable problem-side rows, derived once per engine: which
  /// generators each operation feeds, the generator id layout, whether
  /// constant operands are charged, and the candidate
  /// tables the move proposers scan every proposal (operation nodes, FUs
  /// by class, pass-capable FUs) — cached here so proposals stop paying an
  /// allocation per Cdfg::operations()/FuPool::of_class() call.
  struct EngineStatics {
    std::vector<OpInfo> op_info;  // indexed by NodeId (ops only populated)
    int const_gen_base = 0;
    int num_gens = 0;
    bool charge_consts = false;
    std::vector<NodeId> ops;
    std::array<std::vector<FuId>, 2> fus_by_class;  // indexed by FuClass
    std::vector<FuId> pass_fus;
    // Ops whose result lands (start + delay - 1, mod schedule length) at
    // each control step — schedule-side, so static per problem. Lets the
    // pass-through binder test "does some op's output occupy FU f at step
    // t" against the couple of ops landing at t instead of scanning all.
    std::vector<std::vector<NodeId>> finishing_at;
    // More pre-resolved problem-side predicates the proposers evaluate per
    // candidate per proposal: op FU class and occupancy length (indexed by
    // NodeId), ops grouped by FU class, commutative ops, pass-capable FUs
    // of single-cycle classes (the only ones the pass binder can use), and
    // the (storage, segment) pairs live at each control step — all fixed by
    // the CDFG/schedule, so deriving them once removes an out-of-line
    // predicate call per scanned candidate from the move hot path. Each
    // list preserves the scan order of the loop it replaces, so candidate
    // sets (hence RNG draws and trajectories) are unchanged.
    std::vector<FuClass> op_class;
    std::vector<int> op_occ;
    // Whether each node is an output port — the one static fact the read
    // generator's use enumeration needs per read, pre-resolved so the hot
    // loop never dereferences the CDFG node table.
    std::vector<uint8_t> node_is_output;
    std::array<std::vector<NodeId>, 2> ops_by_class;  // indexed by FuClass
    std::vector<NodeId> commutative_ops;
    std::vector<FuId> pass_fus_1cyc;
    // Bitmask twin of pass_fus_1cyc (bit f set iff f is a single-cycle
    // pass candidate), sized to ceil(num_fus / 64) words. The pass binder
    // ANDs it against the transposed FU busy row instead of probing one
    // fu_busy row per candidate; pass_fus_1cyc ascends in FU id, so the
    // mask's bit order IS the list's candidate order and the k-th set bit
    // of the free mask is the k-th free candidate the probe loop found.
    std::vector<uint64_t> pass_fus_1cyc_mask;
    std::vector<std::vector<std::pair<int, int>>> live_at;  // [step]->(sid,seg)
    // Index of each operation within its ops_by_class list — the rank the
    // per-FU op lists (fu_ops_) store, so fu-exchange selection stays in
    // scan order without holding node ids twice.
    std::vector<int> pos_in_class;  // indexed by NodeId (-1 for non-ops)
    // Flat (sid, seg) addressing: segment seg of storage sid lives at flat
    // index sto_seg_off[sid] + seg. pos_in_step[flat] is that segment's
    // position within live_at[its step] — where the per-step cell-count
    // Fenwick keeps its count.
    std::vector<int> sto_seg_off;  // size S + 1 (prefix offsets)
    std::vector<int> pos_in_step;  // indexed by flat (sid, seg)
    // Total reads across all storages — sizes the connection-index reserve.
    long total_reads = 0;
  };

  /// One reversed scalar write: *p held `old` before the transaction's
  /// mutation (the per-segment write-key counts; the pointees are stable
  /// for the life of a transaction).
  struct IntUndo {
    int* p;
    int old;
  };
  /// One netted connection-index delta awaiting commit: the packed
  /// (sink, source) pair key and its net use-count change this transaction.
  /// finish_mutation computes the cost delta from these read-only (probing
  /// the shared tables without mutating them); commit applies them for
  /// real, and rollback simply discards them — a rejected move never
  /// touches pair_refs_/sink_sources_ at all.
  struct PendingUse {
    uint64_t key;
    int net;
  };

  void build_static();
  void init_from_statics();
  void rebuild();
  void recompute_total();

  int gen_reads(int sid) const { return 2 * sid; }
  int gen_writes(int sid) const { return 2 * sid + 1; }
  int gen_const(NodeId n) const { return statics_->const_gen_base + n; }

  template <typename Fn>
  void enum_gen_uses(int gen, Fn&& fn) const;
  /// Enumerates the write uses of one segment of storage `sid` (the
  /// per-segment body of enum_gen_uses' write branch): producer latch /
  /// environment load for segment 0, nothing for a hold, one transfer key
  /// or a via key pair otherwise.
  template <typename Fn>
  void enum_write_seg_uses(int sid, const Storage& s, const StorageBinding& sb,
                           int seg, Fn&& fn) const;
  /// Enumerates generator `gen`'s uses from the binding into `keys`:
  /// the cache itself outside a transaction (rebuild), the removal's stash
  /// slot inside one (commit installs it via install_fresh_gen_caches).
  void add_gen(int gen, std::vector<uint64_t>& keys);
  /// Copies each removed generator's fresh enumeration (stash slot) into
  /// its cache — the commit-side half of retire/re-add. Capacity-stable on
  /// both sides, so steady-state commits never allocate.
  void install_fresh_gen_caches();
  /// Windowed write-generator refresh: builds the generator's
  /// replacement key list in the stash slot by splicing the
  /// cached pre-move list's unchanged prefix and suffix around a fresh
  /// enumeration of just the touched window — the per-segment key counts
  /// (write_seg_keys_) locate the window inside the flat cached list.
  /// Produces the exact key list a full re-enumeration would
  /// (out-of-window segments are byte-identical), so the generic
  /// old-vs-new netting downstream is unchanged. `whi` is the window the
  /// cached list's suffix starts after; `whi_add` the last segment
  /// re-enumerated (differs only under the --break-segment-window
  /// mutation hook).
  void add_write_gen_spliced(int sid, size_t stash_idx, int wlo, int whi,
                             int whi_add);
  /// Windowed read-generator refresh: a read generator emits exactly one
  /// key per StorageRead, and read ri's key can change
  /// only if its segment lies inside the cell-mutation window, its
  /// read_cell retargeted, or its consumer op was touched this epoch.
  /// Every other entry is copied from the cached pre-move list verbatim;
  /// the changed ones are recomputed in place with the same logic as
  /// enum_gen_uses' read branch. Returns false (caller falls back to the
  /// full enumeration) if the cache doesn't hold the expected
  /// one-key-per-read shape.
  bool add_read_gen_spliced(int sid, size_t stash_idx);
  bool is_write_gen(int gen) const {
    return gen < statics_->const_gen_base && (gen & 1) != 0;
  }
  bool is_read_gen(int gen) const {
    return gen < statics_->const_gen_base && (gen & 1) == 0;
  }
  void remove_gen_once(int gen);
  /// Charges one pair key into the two index tables and the
  /// connections/muxes counts. Non-transactional path only (rebuild);
  /// transactions go through the pending-use netting instead.
  void add_key(uint64_t key);
  /// Applies the transaction's netted use deltas to the shared index
  /// tables (cost_ was already advanced read-only by finish_mutation).
  void apply_pending_uses();
  /// Records a scalar about to be overwritten into the undo journal.
  void journal_int(int& slot) {
    if (in_txn_) undo_ints_.push_back({&slot, slot});
  }

  /// Touch-time claim releases (occupancy slots and refcount rows), not
  /// journaled: rollback restores the saved units and re-claims from them.
  void remove_op_claims(NodeId n);
  /// Storage claim release, restricted to segments [lo, hi] (a
  /// whole-storage walk passes [0, len - 1]). A segment's claims are
  /// self-contained: the cell's register at its own step plus, for a via,
  /// the pass-through FU at the previous step — so a ranged walk releases
  /// exactly the window's slots.
  void remove_sto_claims(int sid, int lo, int hi);
  /// Read-only claim re-adds: they only accumulate which fu/reg refcount
  /// rows are about to gain claims (fu_stage_/reg_stage_ scratch), writing
  /// nothing — no occupancy slots, no plane words. settle_staged_claims
  /// then advances cost_.fus_used/regs_used from the scratch against the
  /// still-at-removal refcounts, and the actual table writes wait until
  /// commit (apply_pending_claims). A rejected move never re-adds its
  /// claims at all.
  void stage_op_claims(NodeId n);
  /// Fuses Binding::normalize_storage with the storage claim staging into
  /// a single walk over the storage's cells. Ranged like
  /// remove_sto_claims.
  void normalize_and_stage_sto(int sid, int lo, int hi);
  void settle_staged_claims();
  /// Claims every touched unit's occupancy from its *current* binding
  /// state, without cost accounting. Serves two symmetric callers: commit
  /// (binding holds the accepted mutation) and rollback (binding just
  /// restored to the saved units — re-claiming them is the exact inverse
  /// of the unjournaled touch-time removals).
  void apply_claims_walk();
  /// Commit-side apply of the staged claims: replays the touched sets
  /// through the real claim writes (occupancy + refcounts), skipping the
  /// cost accounting (settle_staged_claims already charged it), then
  /// refreshes the touched storages' statistics.
  void apply_pending_claims();
  /// Recounts sto_cells_/sto_vias_/sto_xfers_ (and total_cells_) for one
  /// storage from its current binding. Runs outside transactions only.
  void refresh_sto_stats(int sid);
  /// Windowed stats refresh (at commit): folds the difference
  /// between the saved pre-move window (sto_save_) and the current binding
  /// window into the counters instead of recounting the whole storage.
  /// Out-of-window cells are byte-identical on both sides, so the diffed
  /// counts equal a full recount exactly (integer arithmetic, no
  /// approximation). Leaf counting extends one segment left (a window's
  /// first segment changes the child marks of the segment before it).
  void refresh_sto_stats_window(int sid, int wlo, int whi);

  void finish_mutation();
  void end_txn();
  void trace_decision(bool accepted);
  /// Re-files a committed FU change in the fu_ops_ index (no-op when the
  /// op's unit did not change).
  void update_fu_ops(NodeId n, FuId from, FuId to);

  Binding b_;
  Occupancy occ_;
  CostBreakdown cost_;

  // Connection index: packed (sink, src) pair -> number of routed uses;
  // packed sink -> number of distinct charged sources. Flat open-addressing
  // tables — see util/flat_map.h for the layout and the iteration-order
  // contract that keeps rebuild comparisons content-based.
  FlatMap<uint64_t> pair_refs_;
  FlatMap<uint32_t> sink_sources_;
  // Net per-pair index delta accumulated over the open transaction.
  // Touching a unit retires *all* its uses and finish_mutation re-charges
  // the mostly-unchanged set, so use mutations are first netted here (a
  // small, cache-hot scratch table) and only nonzero nets survive the
  // drain — the final counts, and hence the delta, are identical because
  // per-key refcount arithmetic commutes. Cleared on drain.
  FlatMap<uint64_t> txn_delta_;
  // Per-sink source-count delta scratch for the read-only cost evaluation:
  // the drain above accumulates, per sink, how many of its distinct pairs
  // go live or dead this transaction, and the mux delta falls out of
  // max(0, sources - 1) before/after. Cleared on drain.
  FlatMap<uint32_t> sink_delta_;

  std::vector<int> fu_refs_;
  std::vector<int> reg_refs_;

  // Staged-claims scratch: per-fu/per-reg pending
  // add-claim counts plus the dedup lists of rows touched this
  // transaction. Nonzero only between stage_*_claims and
  // settle_staged_claims inside one finish_mutation call.
  std::vector<int> fu_stage_;
  std::vector<int> reg_stage_;
  std::vector<int> fu_staged_;
  std::vector<int> reg_staged_;

  // Per-storage candidate statistics (see the accessors above).
  std::vector<int> sto_cells_;
  std::vector<int> sto_vias_;
  std::vector<int> sto_xfers_;
  int total_cells_ = 0;
  // Leaf cells of multi-cell segments / reads with >= 2 cells to pick from
  // — the merge and retarget candidate counts, refreshed with the stats
  // above.
  std::vector<int> sto_leaves_;
  std::vector<int> sto_fat_reads_;
  // Fenwick selection indexes over the five per-storage statistics (see
  // the public accessors): refresh_sto_stats feeds them the per-storage
  // deltas.
  Fenwick fw_cells_;
  Fenwick fw_vias_;
  Fenwick fw_xfers_;
  Fenwick fw_leaves_;
  Fenwick fw_fat_reads_;
  // Per-control-step cell-count Fenwicks over live_at[step] positions
  // (segment-exchange selection), plus the per-(sid, seg) cell-count
  // mirror (flat sto_seg_off addressing) that turns a stats refresh into
  // per-segment deltas.
  std::vector<Fenwick> step_cells_;
  std::vector<int> seg_size_;
  // Sorted pos_in_class ranks of the operations bound to each FU — the
  // fu-exchange order-statistics index. Updated at commit (and on the
  // broken-undo test path) by diffing touched ops' saved vs current FU;
  // proposals only read it, so rejected moves never touch it.
  std::vector<std::vector<int>> fu_ops_;

  std::unique_ptr<const EngineStatics> statics_;

  // Per-generator cache of the charged packed pair keys the generator's
  // enumeration last produced. The transaction protocol guarantees a
  // generator is removed (remove_gen_once) before any binding state its
  // enumeration reads can change — touch_op/touch_sto retire all
  // dependent generators up front — so a live cache is always current and
  // retiring a generator replays the cached keys instead of re-walking
  // the binding. Mid-transaction the cache keeps the pre-move list
  // (netting's "old" side and rollback's ground truth); the fresh
  // enumeration builds in the stash slot indexed parallel to
  // removed_gens_ (buffers pooled across transactions — each gen's cache
  // and each slot hold a stable capacity, so neither side of the
  // steady-state protocol allocates) and commit installs it
  // (install_fresh_gen_caches) while rollback simply drops it.
  std::vector<std::vector<uint64_t>> gen_keys_;
  std::vector<std::vector<uint64_t>> gen_stash_;

  // Transaction state. Epoch stamps give O(1) already-touched /
  // already-removed checks without clearing arrays between proposals.
  uint32_t epoch_ = 0;
  std::vector<uint32_t> gen_epoch_;
  std::vector<uint32_t> op_epoch_;
  std::vector<uint32_t> sto_epoch_;
  std::vector<TouchedOp> touched_ops_;
  // Touched-storage undo state: the sids touched this transaction, and one
  // save buffer *per storage* (indexed by sid). A dedicated buffer always
  // has exactly the segment shape of the storage it saves, so the
  // copy-assignment in touch_sto refills the existing cell vectors in
  // place — a shared slot pool would reshape (destroy/reallocate) its
  // inner vectors whenever consecutive transactions touch storages of
  // different lengths.
  std::vector<int> touched_sids_;
  std::vector<StorageBinding> sto_save_;
  // Segment window of each touched storage (valid for sids in
  // touched_sids_ this epoch): the save/claim/normalize walks cover
  // segments [sto_wlo_, sto_whi_]; a read-only touch is the empty window
  // (whi < wlo). sto_whi_add_ is the re-add side's upper bound — equal to
  // sto_whi_ except when the --break-segment-window mutation hook narrows
  // it to prove the audit wall catches a short re-add.
  std::vector<int> sto_wlo_;
  std::vector<int> sto_whi_;
  std::vector<int> sto_whi_add_;
  // Keys the write generator's cache holds per segment, flat-indexed by
  // sto_seg_off[sid] + seg (a hold emits 0, a via 2, a transfer or a
  // segment-0 latch 1). Locates a window inside the flat cached key list
  // for the spliced refresh; the one derived scalar the undo journal covers.
  std::vector<int> write_seg_keys_;
  // Segment-windowed transactions enabled (see set_segment_windows).
  bool seg_windows_ = true;
  std::vector<int> removed_gens_;
  // Undo journal (see the class comment): replayed in reverse by rollback.
  std::vector<IntUndo> undo_ints_;
  // Netted index deltas awaiting commit (see PendingUse): applied by
  // commit, discarded by rollback.
  std::vector<PendingUse> pending_uses_;
  // Per-transaction sink-delta staging for the prefetch-then-probe pass in
  // finish_mutation (collected from sink_delta_'s drain, probed against
  // sink_sources_ after the prefetches land).
  std::vector<std::pair<uint32_t, int>> sink_scratch_;
  bool in_txn_ = false;
  CostBreakdown cost_before_;  ///< breakdown at propose() entry
  MoveKind pending_kind_{};
  double pending_delta_ = 0;

  std::array<MoveKindStats, kNumMoveKinds> kind_stats_{};
  long steps_ = 0;
  std::ostream* trace_ = nullptr;
  const char* aux_name_ = nullptr;
  double aux_ = 0;
  SearchObserver* observer_ = nullptr;
  bool break_next_undo_ = false;
};

}  // namespace salsa
