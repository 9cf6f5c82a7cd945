#include "analysis/auditor.h"

#include <sstream>

#include "analysis/digest.h"
#include "core/verify.h"

namespace salsa {

void InvariantAuditor::violation(const std::string& what) const {
  std::ostringstream os;
  os << "SalsaCheck violation at transaction " << stats_.txns << ": " << what;
  fail(os.str());
}

void InvariantAuditor::resolve_every(const SearchEngine& eng) {
  if (effective_every_ != 0) return;
  effective_every_ = opts_.every < 1 ? 1 : opts_.every;
  const long ops =
      static_cast<long>(eng.prob().cdfg().operations().size());
  if (effective_every_ == 1 && opts_.sample_threshold_ops > 0 &&
      ops > opts_.sample_threshold_ops) {
    // ops/64: each audited transaction's O(design) battery is spread over
    // the ~ops/64 transactions between audits, so the amortized audit cost
    // per transaction stays a constant multiple of the move itself no
    // matter how large the design grows.
    effective_every_ = ops / 64;
    sampling_ = true;
  }
}

void InvariantAuditor::on_txn_begin(const SearchEngine& eng) {
  resolve_every(eng);
  ++stats_.txns;
  auditing_ = effective_every_ <= 1 || stats_.txns % effective_every_ == 1;
  if (!auditing_) return;
  ++stats_.audited;
  if (opts_.check_digest) digest_before_ = digest_binding(eng.binding());
  cost_before_ = eng.cost();
}

void InvariantAuditor::on_txn_abort(const SearchEngine& eng) {
  ++stats_.aborts;
  if (!auditing_) return;
  if (opts_.check_digest && digest_binding(eng.binding()) != digest_before_)
    violation("infeasible proposal mutated the binding");
  if (eng.total() != cost_before_.total)
    violation("infeasible proposal changed the incremental total");
}

void InvariantAuditor::on_commit(const SearchEngine& eng, double delta) {
  ++stats_.commits;
  if (opts_.check_bitplanes && (!sampling_ || auditing_)) {
    // Below the sampling threshold this runs on every commit, not just
    // audited ones: it is far cheaper than the O(design) battery and a
    // plane that drifted from the grids between audited transactions would
    // otherwise be re-synchronized by the next rebuild-based check. On
    // sampled large designs even these O(resources x steps) word compares
    // would dominate the move loop, so they ride the audit sample — plane
    // drift is persistent state and still caught at the next audited
    // commit.
    std::string why;
    if (!eng.occupancy_planes_match(&why))
      violation("occupancy bitplanes diverged from the scalar grids: " + why);
  }
  if (!auditing_) return;
  if (opts_.verify_binding) {
    const auto bad = verify(eng.binding());
    if (!bad.empty()) {
      std::string what = "committed binding is illegal:";
      for (const auto& m : bad) what += "\n  - " + m;
      violation(what);
    }
  }
  if (opts_.check_index) {
    std::string why;
    if (!eng.index_matches_rebuild(&why))
      violation("derived state drifted after commit: " + why);
  }
  if (opts_.check_cost) {
    const CostBreakdown full = evaluate_cost(eng.binding());
    const CostBreakdown& inc = eng.cost();
    if (full.fus_used != inc.fus_used || full.regs_used != inc.regs_used ||
        full.connections != inc.connections || full.muxes != inc.muxes ||
        full.total != inc.total) {
      std::ostringstream os;
      os << "incremental cost breakdown diverged from evaluate_cost: "
         << "incremental (fu " << inc.fus_used << ", reg " << inc.regs_used
         << ", conn " << inc.connections << ", mux " << inc.muxes << ", total "
         << inc.total << ") vs full (fu " << full.fus_used << ", reg "
         << full.regs_used << ", conn " << full.connections << ", mux "
         << full.muxes << ", total " << full.total << ")";
      violation(os.str());
    }
    // The engine defines the delta as the weighted sum of the integer
    // component diffs (baseline-independent — see SearchEngine::propose),
    // so the audit recomputes it the same way from the from-scratch counts.
    const CostWeights& w = eng.prob().weights();
    const double expected =
        w.fu * (full.fus_used - cost_before_.fus_used) +
        w.reg * (full.regs_used - cost_before_.regs_used) +
        w.mux * (full.muxes - cost_before_.muxes) +
        w.conn * (full.connections - cost_before_.connections);
    if (expected != delta) {
      std::ostringstream os;
      os << "committed delta " << delta << " does not equal the exact "
         << "from-scratch difference " << expected;
      violation(os.str());
    }
  }
}

void InvariantAuditor::on_rollback(const SearchEngine& eng) {
  ++stats_.rollbacks;
  if (!auditing_) return;
  if (opts_.check_digest && digest_binding(eng.binding()) != digest_before_)
    violation("rollback did not restore the binding byte-identically");
  if (eng.total() != cost_before_.total)
    violation("rollback did not restore the incremental total");
}

}  // namespace salsa
