#include "core/annealer.h"

#include <cmath>

#include "core/proposer.h"
#include "core/verify.h"

namespace salsa {

ImproveResult anneal(const Binding& start, const AnnealParams& params) {
  check_legal(start);

  SearchEngine eng(start);
  eng.set_trace(params.trace);
  eng.set_observer(params.observer);
  MoveProposer proposer(eng, params.moves, params.seed);
  Binding best = start;
  double best_cost = eng.total();

  ImproveStats stats;
  double temp = params.initial_temp;
  for (int level = 0; level < params.num_temps; ++level, temp *= params.cooling) {
    ++stats.trials;
    eng.set_trace_aux("temp", temp);
    for (int m = 0; m < params.moves_per_temp; ++m) {
      const auto c = proposer.next();
      if (!c.feasible) continue;
      ++stats.attempted;
      bool accept = c.delta <= 0;
      if (!accept && temp > 1e-9) {
        // The Metropolis draw comes from the candidate's own RNG stream
        // (continued past the proposal draws), so acceptance randomness is
        // a function of the candidate alone.
        Rng r = c.rng_after;
        accept = r.uniform01() < std::exp(-c.delta / temp);
      }
      proposer.decide(accept);
      if (!accept) continue;
      ++stats.accepted;
      if (c.delta > 0) ++stats.uphill;
      if (eng.total() < best_cost - 1e-9) {
        best = eng.binding();
        best_cost = eng.total();
      }
    }
  }
  stats.by_kind = eng.kind_stats();
  check_legal(best);
  CostBreakdown final_cost = evaluate_cost(best);
  return ImproveResult{std::move(best), final_cost, stats};
}

}  // namespace salsa
