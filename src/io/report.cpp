#include "io/report.h"

#include <algorithm>
#include <sstream>

#include "core/cost.h"
#include "util/table.h"

namespace salsa {

std::string storage_chain(const Binding& b, int sid) {
  const AllocProblem& prob = b.prob();
  const Lifetimes& lt = prob.lifetimes();
  const Storage& s = lt.storage(sid);
  const StorageBinding& sb = b.sto(sid);
  std::ostringstream os;
  os << s.name << " [steps " << s.birth << "..+"
     << s.len - 1 << (s.wraps ? ", wraps" : "") << "]:";
  for (int seg = 0; seg < s.len; ++seg) {
    const auto& cells = sb.cells[static_cast<size_t>(seg)];
    os << " ";
    for (size_t ci = 0; ci < cells.size(); ++ci) {
      const Cell& c = cells[ci];
      if (ci > 0) os << "+";
      if (seg > 0) {
        const Cell& parent =
            sb.cells[static_cast<size_t>(seg) - 1][static_cast<size_t>(c.parent)];
        if (parent.reg != c.reg) {
          os << "->";
          if (c.via != kInvalidId)
            os << "(" << prob.fus().fu(c.via).name << ")";
        }
      }
      os << "R" << c.reg;
    }
  }
  return os.str();
}

std::string allocation_report(const Binding& b) {
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();
  const Lifetimes& lt = prob.lifetimes();
  std::ostringstream os;

  os << "=== allocation report: " << g.name() << " ===\n";
  const CostBreakdown cost = evaluate_cost(b);
  os << "cost " << cost.total << " — " << cost.fus_used << " FUs, "
     << cost.regs_used << " registers, " << cost.connections
     << " connections, " << cost.muxes << " equivalent 2-1 muxes\n\n";

  TextTable fu_table;
  fu_table.header({"step", "op", "kind", "FU", "operands"});
  std::vector<NodeId> ops = g.operations();
  std::sort(ops.begin(), ops.end(), [&](NodeId a, NodeId c) {
    return sched.start(a) != sched.start(c) ? sched.start(a) < sched.start(c)
                                            : a < c;
  });
  for (NodeId n : ops) {
    const Node& nd = g.node(n);
    std::string operands;
    for (size_t k = 0; k < nd.ins.size(); ++k) {
      if (k) operands += ", ";
      operands += g.value(nd.ins[k]).name;
    }
    if (b.op(n).swap) operands += " (swapped)";
    fu_table.row({std::to_string(sched.start(n)), nd.name, op_name(nd.kind),
                  prob.fus().fu(b.op(n).fu).name, operands});
  }
  os << fu_table.render() << "\nstorage chains:\n";
  for (int sid = 0; sid < lt.num_storages(); ++sid)
    os << "  " << storage_chain(b, sid) << "\n";
  return os.str();
}

std::string search_stats_report(const ImproveStats& stats) {
  std::ostringstream os;
  auto fmt = [](double v) {
    std::ostringstream s;
    s.precision(3);
    s << v;
    return s.str();
  };
  TextTable t;
  t.header({"move", "attempted", "accepted", "accept%", "mean delta"});
  for (int k = 0; k < kNumMoveKinds; ++k) {
    const MoveKindStats& mk = stats.by_kind[static_cast<size_t>(k)];
    if (mk.attempted == 0) continue;
    const double rate =
        100.0 * static_cast<double>(mk.accepted) /
        static_cast<double>(mk.attempted);
    t.row({move_name(static_cast<MoveKind>(k)), std::to_string(mk.attempted),
           std::to_string(mk.accepted), fmt(rate), fmt(mk.mean_delta())});
  }
  os << t.render();
  os << "trials " << stats.trials << ", attempted " << stats.attempted
     << ", accepted " << stats.accepted << ", uphill " << stats.uphill
     << ", kicks " << stats.kicks << "\n";
  return os.str();
}

}  // namespace salsa
