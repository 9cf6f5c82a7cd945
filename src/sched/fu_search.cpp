#include "sched/fu_search.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "sched/force_directed.h"

namespace salsa {

FuBudget peak_fu_demand(const Schedule& sched) {
  FuBudget peak;
  for (int t = 0; t < sched.length(); ++t) {
    int alu = sched.ops_active(OpKind::kAdd, t) +
              sched.ops_active(OpKind::kSub, t) +
              sched.ops_active(OpKind::kNop, t);
    int mul = sched.ops_active(OpKind::kMul, t);
    peak.alu = std::max(peak.alu, alu);
    peak.mul = std::max(peak.mul, mul);
  }
  return peak;
}

FuSearchResult schedule_min_fu(const Cdfg& g, const HwSpec& hw, int length,
                               double alu_cost, double mul_cost,
                               const Parallelism& par) {
  Schedule fds = force_directed_schedule(g, hw, length);
  FuBudget best_fus = peak_fu_demand(fds);
  Schedule best = fds;
  double best_cost = alu_cost * best_fus.alu + mul_cost * best_fus.mul;

  // Occupancy lower bounds: total busy-steps / length, rounded up.
  int alu_occ = 0, mul_occ = 0;
  for (NodeId id : g.operations()) {
    const OpKind k = g.node(id).kind;
    (fu_class_of(k) == FuClass::kAlu ? alu_occ : mul_occ) += hw.occupancy(k);
  }
  const int alu_lb = std::max(g.count(OpKind::kAdd) + g.count(OpKind::kSub) +
                                      g.count(OpKind::kNop) > 0 ? 1 : 0,
                              (alu_occ + length - 1) / length);
  const int mul_lb = std::max(g.count(OpKind::kMul) > 0 ? 1 : 0,
                              (mul_occ + length - 1) / length);

  // The lattice walk prunes against a *running* best (both the cost gate
  // and the loop's upper bounds shrink as better envelopes are found), so
  // the visited set depends on probe outcomes. To parallelise without
  // changing a single answer, probe ahead: list-schedule every
  // point the walk could possibly visit — the static rectangle up to the
  // force-directed envelope, gated by the force-directed cost — in
  // parallel, then replay the exact sequential walk against the
  // precomputed outcomes. A few points are probed that the walk then never
  // consults (bounded by the rectangle, ~a dozen points); the returned
  // schedule is byte-identical to the sequential algorithm's at any thread
  // count.
  const int alu_ub = std::max(best_fus.alu, alu_lb);
  const int mul_ub = std::max(best_fus.mul, mul_lb);
  const int mul_span = mul_ub - mul_lb + 1;
  std::vector<FuBudget> probes;
  for (int alu = alu_lb; alu <= alu_ub; ++alu)
    for (int mul = mul_lb; mul <= mul_ub; ++mul)
      if (alu_cost * alu + mul_cost * mul < best_cost)
        probes.push_back(FuBudget{alu, mul});
  const auto probed = parallel_map(
      par, static_cast<int>(probes.size()), [&](int i) {
        return list_schedule(g, hw, length, probes[static_cast<size_t>(i)]);
      });
  // Probe outcomes addressed by lattice point (nullopt also for never-
  // probed points — the walk only consults points under the FDS cost gate,
  // which is exactly the probed set).
  std::vector<std::optional<Schedule>> at(
      static_cast<size_t>((alu_ub - alu_lb + 1) * mul_span));
  for (size_t i = 0; i < probes.size(); ++i)
    at[static_cast<size_t>((probes[i].alu - alu_lb) * mul_span +
                           (probes[i].mul - mul_lb))] = probed[i];

  for (int alu = alu_lb; alu <= std::max(best_fus.alu, alu_lb); ++alu) {
    for (int mul = mul_lb; mul <= std::max(best_fus.mul, mul_lb); ++mul) {
      const double cost = alu_cost * alu + mul_cost * mul;
      if (cost >= best_cost) continue;
      const auto& s =
          at[static_cast<size_t>((alu - alu_lb) * mul_span + (mul - mul_lb))];
      if (!s) continue;
      const FuBudget demand = peak_fu_demand(*s);
      const double real_cost = alu_cost * demand.alu + mul_cost * demand.mul;
      if (real_cost < best_cost) {
        best_cost = real_cost;
        best = *s;
        best_fus = demand;
      }
    }
  }
  return FuSearchResult{best, best_fus};
}

}  // namespace salsa
