#include "core/improver.h"

#include "core/proposer.h"
#include "core/verify.h"

namespace salsa {

ImproveResult improve(const Binding& start, const ImproveParams& params) {
  check_legal(start);

  SearchEngine eng(start);
  eng.set_trace(params.trace);
  eng.set_observer(params.observer);
  MoveProposer proposer(eng, params.moves, params.seed);
  Binding best = start;
  double best_cost = eng.total();

  ImproveStats stats;
  int stale = 0;
  for (int trial = 0; trial < params.max_trials; ++trial) {
    ++stats.trials;
    int uphill_left = params.uphill_per_trial;
    bool improved = false;
    for (int m = 0; m < params.moves_per_trial; ++m) {
      eng.set_trace_aux("uphill_left", uphill_left);
      const auto c = proposer.next();
      if (!c.feasible) continue;
      ++stats.attempted;
      bool accept = c.delta <= 0;
      if (!accept && uphill_left > 0 && c.delta <= params.max_uphill_delta) {
        accept = true;
        --uphill_left;
        ++stats.uphill;
      }
      proposer.decide(accept);
      if (!accept) continue;
      ++stats.accepted;
      if (eng.total() < best_cost - 1e-9) {
        best = eng.binding();
        best_cost = eng.total();
        improved = true;
      }
    }
    if (improved) {
      stale = 0;
    } else {
      // Return to the best known allocation before exploring again.
      eng.reset_to(best);
      if (++stale >= params.stop_after_stale) break;
    }
  }
  stats.by_kind = eng.kind_stats();
  check_legal(best);
  CostBreakdown final_cost = evaluate_cost(best);
  return ImproveResult{std::move(best), final_cost, stats};
}

}  // namespace salsa
