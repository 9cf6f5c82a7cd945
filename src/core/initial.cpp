#include "core/initial.h"

#include <algorithm>

#include "util/bitplane.h"
#include "util/rng.h"

namespace salsa {

namespace {

// The connections placed so far, as register bit rows: one row per
// connection endpoint that is not a register. Bit r of a source's row is set
// once register r is written from that source, bit r of a sink's row once
// the sink reads register r. Rows are dense, so no hashing is needed: FU
// outputs, FU operand pins 0 and 1, then the I/O ports in order of first
// use.
class EndpointRows {
 public:
  EndpointRows(int num_fus, int num_nodes)
      : fus_(num_fus),
        in_port_(static_cast<size_t>(num_nodes), -1),
        out_port_(static_cast<size_t>(num_nodes), -1) {}

  int fu_out(FuId f) const {
    SALSA_DCHECK(f >= 0 && f < fus_);
    return f;
  }
  int fu_in(FuId f, int operand) const {
    return (operand == 0 ? 1 : 2) * fus_ + fu_out(f);
  }
  int in_port(NodeId n) { return port(in_port_, n); }
  int out_port(NodeId n) { return port(out_port_, n); }
  int size() const { return 3 * fus_ + ports_; }

 private:
  int port(std::vector<int>& index, NodeId n) {
    int& row = index[static_cast<size_t>(n)];
    if (row < 0) row = 3 * fus_ + ports_++;
    return row;
  }

  int fus_;
  int ports_ = 0;
  std::vector<int> in_port_;
  std::vector<int> out_port_;
};

/// One read of a storage: the segment it happens in and its sink's row.
struct Sink {
  int seg;
  int row;
};

// The register among the set bits of `cand` (`stride` words) that the
// fewest of `rows` lack, i.e. whose placement adds the fewest new
// connections; the lowest index wins ties. A row listed twice counts twice.
// kInvalidId when `cand` is empty.
RegId fewest_new(const uint64_t* cand, int stride,
                 const std::vector<uint64_t*>& rows) {
  RegId best = kInvalidId;
  int best_score = 0;
  for (int w = 0; w < stride; ++w) {
    for (uint64_t bits = cand[w]; bits != 0; bits &= bits - 1) {
      const int bit = ctz64(bits);
      int score = 0;
      for (const uint64_t* row : rows) score += !((row[w] >> bit) & 1ull);
      if (best == kInvalidId || score < best_score) {
        best = (w << 6) + bit;
        best_score = score;
        if (score == 0) return best;  // nothing can add fewer
      }
    }
  }
  return best;
}

}  // namespace

Binding initial_allocation(const AllocProblem& prob,
                           const InitialOptions& opts) {
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();
  const Lifetimes& lt = prob.lifetimes();
  const int L = sched.length();
  Rng rng(opts.seed);
  Binding b(prob);

  // ---- operators to FUs, first-available per control step -----------------
  std::vector<std::vector<bool>> fu_busy(
      static_cast<size_t>(prob.fus().size()),
      std::vector<bool>(static_cast<size_t>(L), false));
  std::vector<NodeId> ops = g.operations();
  std::sort(ops.begin(), ops.end(), [&](NodeId a, NodeId c) {
    return sched.start(a) != sched.start(c) ? sched.start(a) < sched.start(c)
                                            : a < c;
  });
  // Each class's FUs in index order, listed once (FuClass has two values).
  const std::vector<FuId> fus_of[] = {prob.fus().of_class(FuClass::kAlu),
                                      prob.fus().of_class(FuClass::kMul)};
  for (NodeId n : ops) {
    const OpKind k = g.node(n).kind;
    const int occ = sched.hw().occupancy(k);
    FuId chosen = kInvalidId;
    for (FuId f : fus_of[static_cast<size_t>(fu_class_of(k))]) {
      bool free = true;
      for (int t = sched.start(n); t < sched.start(n) + occ; ++t)
        if (fu_busy[static_cast<size_t>(f)][static_cast<size_t>(t)]) {
          free = false;
          break;
        }
      if (free) {
        chosen = f;
        break;
      }
    }
    SALSA_CHECK_MSG(chosen != kInvalidId,
                    "initial allocation: FU pool too small for op '" +
                        g.node(n).name + "'");
    for (int t = sched.start(n); t < sched.start(n) + occ; ++t)
      fu_busy[static_cast<size_t>(chosen)][static_cast<size_t>(t)] = true;
    b.op(n).fu = chosen;
  }

  // ---- storages to registers ----------------------------------------------
  // Placement rank, computed once per storage: loop I/O first, then
  // storages covering a maximum-demand step, then the rest.
  const int min_regs = lt.min_registers();
  auto touches_peak = [&](const Storage& s) {
    for (int seg = 0; seg < s.len; ++seg)
      if (lt.demand()[static_cast<size_t>(s.step_at(seg, L))] == min_regs)
        return true;
    return false;
  };
  auto rank_of = [&](const Storage& s) {
    for (ValueId v : s.members)
      if (g.node(g.producer(v)).kind == OpKind::kState) return 0;  // loop I/O
    return touches_peak(s) ? 1 : 2;
  };
  std::vector<int> rank(static_cast<size_t>(lt.num_storages()));
  for (int sid = 0; sid < lt.num_storages(); ++sid)
    rank[static_cast<size_t>(sid)] = rank_of(lt.storage(sid));
  std::vector<int> order(static_cast<size_t>(lt.num_storages()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng.shuffle(order);  // tie-breaking varies with the seed
  std::stable_sort(order.begin(), order.end(), [&](int a, int c) {
    const int ra = rank[static_cast<size_t>(a)];
    const int rc = rank[static_cast<size_t>(c)];
    if (ra != rc) return ra < rc;
    return lt.storage(a).len > lt.storage(c).len;  // long lifetimes early
  });

  // Each storage's connection shape, built once: the row of the source that
  // writes segment 0, and one sink row per read, tagged with its segment.
  // Operand swaps are all still false at this point, so the shape does not
  // depend on the register it is scored against.
  EndpointRows endpoints(prob.fus().size(), g.num_nodes());
  const int num_sto = lt.num_storages();
  std::vector<int> src_row(static_cast<size_t>(num_sto));
  std::vector<int> sink_begin(static_cast<size_t>(num_sto) + 1, 0);
  std::vector<Sink> sinks;
  for (int sid = 0; sid < num_sto; ++sid) {
    const Storage& s = lt.storage(sid);
    src_row[static_cast<size_t>(sid)] =
        s.producer == kInvalidId
            ? endpoints.in_port(g.producer(s.members[0]))
            : endpoints.fu_out(b.op(s.producer).fu);
    for (const StorageRead& r : s.reads) {
      if (r.seg < 0 || r.seg >= s.len) continue;  // never placed
      const int row = g.node(r.consumer).kind == OpKind::kOutput
                          ? endpoints.out_port(r.consumer)
                          : endpoints.fu_in(b.op(r.consumer).fu, r.operand);
      sinks.push_back(Sink{r.seg, row});
    }
    sink_begin[static_cast<size_t>(sid) + 1] = static_cast<int>(sinks.size());
  }

  const int R = prob.num_regs();
  BitPlane seen;  // endpoint row x register: connection already placed
  seen.resize(endpoints.size(), R);
  BitPlane vacant;  // control step x register: register unoccupied
  vacant.resize(L, R);
  for (int t = 0; t < L; ++t) vacant.set_range(t, 0, R);
  BitPlane cand;  // the current storage's contiguous candidates
  cand.resize(1, R);
  const int stride = vacant.stride();
  std::vector<uint64_t*> rows;  // the rows a placement is scored on

  // Rows of storage `sid`'s connections in segment `seg`, or in every
  // segment when seg < 0.
  auto collect_rows = [&](int sid, int seg) {
    rows.clear();
    if (seg <= 0) rows.push_back(seen.row(src_row[static_cast<size_t>(sid)]));
    for (int i = sink_begin[static_cast<size_t>(sid)];
         i < sink_begin[static_cast<size_t>(sid) + 1]; ++i) {
      const Sink& k = sinks[static_cast<size_t>(i)];
      if (seg < 0 || k.seg == seg) rows.push_back(seen.row(k.row));
    }
  };
  auto mark_rows = [&](RegId reg) {
    for (uint64_t* row : rows) row[reg >> 6] |= 1ull << (reg & 63);
  };

  for (int sid : order) {
    const Storage& s = lt.storage(sid);
    // Contiguous candidates: registers free at every step of the storage.
    uint64_t* c = cand.row(0);
    cand.set_range(0, 0, R);
    for (int seg = 0; seg < s.len; ++seg) {
      const uint64_t* f = vacant.row(s.step_at(seg, L));
      for (int w = 0; w < stride; ++w) c[w] &= f[w];
    }
    collect_rows(sid, -1);
    const RegId best_reg = fewest_new(c, stride, rows);
    StorageBinding& sb = b.sto(sid);
    if (best_reg != kInvalidId) {
      for (int seg = 0; seg < s.len; ++seg) {
        sb.cells[static_cast<size_t>(seg)].assign(
            1, Cell{best_reg, seg == 0 ? -1 : 0, kInvalidId});
        vacant.clear(s.step_at(seg, L), best_reg);
      }
      mark_rows(best_reg);
      continue;
    }
    // No contiguous space: split into per-step placements, staying in the
    // current register as long as it is free. Each segment's connections
    // are placed before the next segment is scored.
    if (!opts.allow_splits)
      fail("initial allocation: no contiguous register for storage '" +
           s.name + "'");
    RegId cur = kInvalidId;
    for (int seg = 0; seg < s.len; ++seg) {
      const int step = s.step_at(seg, L);
      collect_rows(sid, seg);
      if (cur == kInvalidId || !vacant.test(step, cur)) {
        cur = fewest_new(vacant.row(step), stride, rows);
        SALSA_CHECK_MSG(cur != kInvalidId,
                        "initial allocation: register demand exceeded");
      }
      sb.cells[static_cast<size_t>(seg)].assign(
          1, Cell{cur, seg == 0 ? -1 : 0, kInvalidId});
      mark_rows(cur);
      vacant.clear(step, cur);
    }
  }
  return b;
}

}  // namespace salsa
