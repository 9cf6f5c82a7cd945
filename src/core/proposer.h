// The candidate stream shared by the acceptance policies (improver,
// annealer, ILS): the paper's sequential trial scheme of Section 4 —
// propose a move, score it, keep it or roll it back.
//
// Candidate i of a run draws its move kind and instance from its own RNG
// stream derive_seed(seed, i), so what a candidate proposes is a function
// of (seed, i) and the engine state it is scored against. `rng_after` is
// that stream after the proposal's draws: a policy that needs acceptance
// randomness (the annealer's Metropolis draw) continues it, so the draw
// belongs to the candidate too.
#pragma once

#include <cstdint>

#include "core/moves.h"
#include "core/search_engine.h"
#include "util/rng.h"

namespace salsa {

class MoveProposer {
 public:
  struct Candidate {
    MoveKind kind{};
    bool feasible = false;
    double delta = 0;
    Rng rng_after{0};
  };

  /// Proposes on `eng` (not owned; must outlive the proposer).
  MoveProposer(SearchEngine& eng, const MoveConfig& moves, uint64_t seed)
      : eng_(eng), moves_(moves), seed_(seed) {}

  /// Proposes the next candidate. A feasible one leaves an open transaction
  /// on the engine: the caller must commit() or rollback() it before the
  /// next call.
  Candidate next() {
    Rng r(derive_seed(seed_, static_cast<uint64_t>(step_++)));
    const MoveKind kind = moves_.pick(r);
    const auto d = eng_.propose(kind, r);
    return Candidate{kind, d.has_value(), d.value_or(0.0), r};
  }

  /// Keeps (commit) or reverts (rollback) the open candidate.
  void decide(bool accept) {
    if (accept) {
      eng_.commit();
    } else {
      eng_.rollback();
    }
  }

 private:
  SearchEngine& eng_;
  MoveConfig moves_;
  uint64_t seed_;
  long step_ = 0;
};

}  // namespace salsa
