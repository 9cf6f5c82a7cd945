#include "core/ils.h"

#include "core/proposer.h"
#include "core/verify.h"

namespace salsa {

namespace {

// Greedy descent: accept downhill/equal moves only.
void descend(SearchEngine& eng, MoveProposer& proposer, int budget,
             ImproveStats& stats) {
  eng.set_trace_aux("kick", 0);
  for (int m = 0; m < budget; ++m) {
    const auto c = proposer.next();
    if (!c.feasible) continue;
    ++stats.attempted;
    const bool accept = c.delta <= 0;
    proposer.decide(accept);
    if (accept) ++stats.accepted;
  }
}

}  // namespace

ImproveResult iterated_local_search(const Binding& start,
                                    const IlsParams& params) {
  check_legal(start);
  ImproveStats stats;

  SearchEngine eng(start);
  eng.set_trace(params.trace);
  eng.set_observer(params.observer);
  MoveProposer proposer(eng, params.moves, params.seed);
  descend(eng, proposer, params.descent_moves, stats);
  Binding best = eng.binding();
  double best_cost = eng.total();

  for (int round = 0; round < params.iterations; ++round) {
    ++stats.trials;
    eng.reset_to(best);
    // Kick: force a few random feasible moves, cost-blind. These are
    // perturbations of the incumbent, not acceptances of the descent
    // policy — they get their own counter.
    eng.set_trace_aux("kick", 1);
    int kicked = 0;
    for (int k = 0; k < params.kick_moves * 4 && kicked < params.kick_moves;
         ++k) {
      const auto c = proposer.next();
      if (!c.feasible) continue;
      proposer.decide(true);
      ++kicked;
      ++stats.kicks;
    }
    descend(eng, proposer, params.descent_moves, stats);
    if (eng.total() < best_cost - 1e-9) {
      best = eng.binding();
      best_cost = eng.total();
    }
  }
  stats.by_kind = eng.kind_stats();
  check_legal(best);
  CostBreakdown final_cost = evaluate_cost(best);
  return ImproveResult{std::move(best), final_cost, stats};
}

}  // namespace salsa
