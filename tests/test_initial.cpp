// Differential oracle for the constructive initial allocation
// (core/initial.cpp). The library finds a storage's contiguous candidates by
// ANDing per-step free-register rows and scores them against per-endpoint
// seen-connection rows. The reference below is the earlier implementation —
// a per-register step walk, scored by building each candidate's connection
// list and looking it up in a std::set of (sink, source) pairs — kept
// verbatim as an independent oracle. Both must produce the same binding, or
// throw the same error, for every problem and option set.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "analysis/digest.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "bench_suite/random_cdfg.h"
#include "core/cost.h"
#include "core/initial.h"
#include "core/lifetime.h"
#include "frontend/generate.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"
#include "util/rng.h"

namespace salsa {
namespace {

// ---- reference implementation ---------------------------------------------

// Connection keys a placement would add, against the set accumulated so far.
class ConnTracker {
 public:
  int would_add(const std::vector<std::pair<uint64_t, uint64_t>>& conns) const {
    int fresh = 0;
    for (const auto& c : conns)
      if (!seen_.count(c)) ++fresh;
    return fresh;
  }
  void add(const std::vector<std::pair<uint64_t, uint64_t>>& conns) {
    for (const auto& c : conns) seen_.insert(c);
  }

 private:
  std::set<std::pair<uint64_t, uint64_t>> seen_;
};

Binding reference_initial_allocation(const AllocProblem& prob,
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
  for (NodeId n : ops) {
    const OpKind k = g.node(n).kind;
    const int occ = sched.hw().occupancy(k);
    FuId chosen = kInvalidId;
    for (FuId f : prob.fus().of_class(fu_class_of(k))) {
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
  const int min_regs = lt.min_registers();
  auto touches_peak = [&](const Storage& s) {
    for (int seg = 0; seg < s.len; ++seg)
      if (lt.demand()[static_cast<size_t>(s.step_at(seg, L))] == min_regs)
        return true;
    return false;
  };
  std::vector<int> order(static_cast<size_t>(lt.num_storages()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng.shuffle(order);  // tie-breaking varies with the seed
  std::stable_sort(order.begin(), order.end(), [&](int a, int c) {
    const Storage& sa = lt.storage(a);
    const Storage& sc = lt.storage(c);
    auto rank = [&](const Storage& s) {
      for (ValueId v : s.members)
        if (g.node(g.producer(v)).kind == OpKind::kState) return 0;  // loop I/O
      return touches_peak(s) ? 1 : 2;
    };
    const int ra = rank(sa), rc = rank(sc);
    if (ra != rc) return ra < rc;
    return sa.len > sc.len;  // long lifetimes early
  });

  std::vector<std::vector<int>> reg_sto(
      static_cast<size_t>(prob.num_regs()),
      std::vector<int>(static_cast<size_t>(L), -1));
  ConnTracker tracker;

  // Connections created by serving this storage's reads from `reg` and (for
  // seg 0) writing it from its producer. Approximate: operand swaps are all
  // still false at this point.
  auto placement_conns = [&](int sid, int seg, RegId reg) {
    const Storage& s = lt.storage(sid);
    std::vector<std::pair<uint64_t, uint64_t>> conns;
    if (seg == 0) {
      const Endpoint src =
          s.producer == kInvalidId
              ? Endpoint{Endpoint::Kind::kInPort, g.producer(s.members[0])}
              : Endpoint{Endpoint::Kind::kFuOut, b.op(s.producer).fu};
      conns.emplace_back(key_of(Pin{Pin::Kind::kRegIn, reg}), key_of(src));
    }
    for (const StorageRead& r : s.reads) {
      if (r.seg != seg) continue;
      const Node& cn = g.node(r.consumer);
      Pin sink = cn.kind == OpKind::kOutput
                     ? Pin{Pin::Kind::kOutPort, r.consumer}
                     : Pin{r.operand == 0 ? Pin::Kind::kFuIn0
                                          : Pin::Kind::kFuIn1,
                           b.op(r.consumer).fu};
      conns.emplace_back(key_of(sink),
                         key_of(Endpoint{Endpoint::Kind::kRegOut, reg}));
    }
    return conns;
  };

  for (int sid : order) {
    const Storage& s = lt.storage(sid);
    // Contiguous candidates.
    RegId best_reg = kInvalidId;
    int best_score = 0;
    for (RegId r = 0; r < prob.num_regs(); ++r) {
      bool free = true;
      for (int seg = 0; seg < s.len && free; ++seg)
        free = reg_sto[static_cast<size_t>(r)]
                      [static_cast<size_t>(s.step_at(seg, L))] == -1;
      if (!free) continue;
      std::vector<std::pair<uint64_t, uint64_t>> conns;
      for (int seg = 0; seg < s.len; ++seg) {
        auto c = placement_conns(sid, seg, r);
        conns.insert(conns.end(), c.begin(), c.end());
      }
      const int score = tracker.would_add(conns);
      if (best_reg == kInvalidId || score < best_score) {
        best_reg = r;
        best_score = score;
      }
    }
    StorageBinding& sb = b.sto(sid);
    if (best_reg != kInvalidId) {
      for (int seg = 0; seg < s.len; ++seg) {
        sb.cells[static_cast<size_t>(seg)].assign(
            1, Cell{best_reg, seg == 0 ? -1 : 0, kInvalidId});
        tracker.add(placement_conns(sid, seg, best_reg));
      }
      for (int seg = 0; seg < s.len; ++seg)
        reg_sto[static_cast<size_t>(best_reg)]
               [static_cast<size_t>(s.step_at(seg, L))] = sid;
      continue;
    }
    // No contiguous space: split into per-step placements, staying in the
    // current register as long as it is free.
    if (!opts.allow_splits)
      fail("initial allocation: no contiguous register for storage '" +
           s.name + "'");
    RegId cur = kInvalidId;
    for (int seg = 0; seg < s.len; ++seg) {
      const int step = s.step_at(seg, L);
      auto is_free = [&](RegId r) {
        return reg_sto[static_cast<size_t>(r)][static_cast<size_t>(step)] == -1;
      };
      if (cur == kInvalidId || !is_free(cur)) {
        RegId pick = kInvalidId;
        int pick_score = 0;
        for (RegId r = 0; r < prob.num_regs(); ++r) {
          if (!is_free(r)) continue;
          const int score = tracker.would_add(placement_conns(sid, seg, r));
          if (pick == kInvalidId || score < pick_score) {
            pick = r;
            pick_score = score;
          }
        }
        SALSA_CHECK_MSG(pick != kInvalidId,
                        "initial allocation: register demand exceeded");
        cur = pick;
      }
      sb.cells[static_cast<size_t>(seg)].assign(
          1, Cell{cur, seg == 0 ? -1 : 0, kInvalidId});
      tracker.add(placement_conns(sid, seg, cur));
      reg_sto[static_cast<size_t>(cur)][static_cast<size_t>(step)] = sid;
    }
  }
  return b;
}

// ---- differential harness ---------------------------------------------------

// The binding digest, or the error text. SALSA_CHECK messages carry the
// failing source location, which differs between the two implementations,
// so only the message after the location is compared.
template <typename Fn>
std::string outcome(Fn&& allocate) {
  try {
    std::ostringstream os;
    os << "digest 0x" << std::hex << digest_binding(allocate());
    return os.str();
  } catch (const Error& e) {
    const std::string what = e.what();
    const size_t dash = what.find(" — ");
    return "error: " + (dash == std::string::npos ? what : what.substr(dash));
  }
}

struct Counts {
  int bindings = 0;
  int errors = 0;
  int split = 0;  ///< successful bindings that split some storage
};

// Runs both implementations on `prob` under both split settings and a few
// seeds; every outcome must agree.
void expect_agreement(const AllocProblem& prob, uint64_t seed, Counts& counts,
                      const std::string& what) {
  for (const bool splits : {true, false}) {
    const InitialOptions opts{.allow_splits = splits, .seed = seed};
    const std::string got =
        outcome([&] { return initial_allocation(prob, opts); });
    const std::string want =
        outcome([&] { return reference_initial_allocation(prob, opts); });
    EXPECT_EQ(got, want) << what << " seed " << seed << " allow_splits "
                         << splits;
    if (got.rfind("error", 0) == 0) {
      ++counts.errors;
    } else {
      ++counts.bindings;
      if (!initial_allocation(prob, opts).is_traditional()) ++counts.split;
    }
  }
}

TEST(InitialOracle, RandomCdfgsAgreeWithReference) {
  Counts counts;
  for (int seed = 1; seed <= 20; ++seed) {
    RandomCdfgParams p;
    p.seed = static_cast<uint64_t>(seed);
    p.num_ops = 10 + seed * 3;
    p.num_inputs = 1 + seed % 4;
    p.num_states = seed % 4;
    p.num_consts = seed % 3;
    const Cdfg g = make_random_cdfg(p);
    HwSpec hw;
    hw.pipelined_mul = seed % 2 == 0;
    const int len = min_schedule_length(g, hw) + seed % 3;
    const Schedule sched = schedule_min_fu(g, hw, len).schedule;
    const int min_regs = Lifetimes(sched).min_registers();
    for (const int extra : {0, 1}) {
      const AllocProblem prob(sched, FuPool::standard(peak_fu_demand(sched)),
                              min_regs + extra);
      expect_agreement(prob, static_cast<uint64_t>(seed), counts,
                       "random cdfg +" + std::to_string(extra));
    }
  }
  EXPECT_GT(counts.bindings, 0);
}

// Generated ~500-op designs at the register minimum and two above it. The
// 4-section cascade splits (and fails strictly) at the minimum and places
// contiguously two above it; the DAG places contiguously at both. So both
// placement paths and the strict error run.
TEST(InitialOracle, GeneratedDesignsAgreeWithReference) {
  Counts counts;
  for (const GenFamily family :
       {GenFamily::kFilterCascade, GenFamily::kLayeredDag}) {
    GenParams p;
    p.family = family;
    p.target_ops = 500;
    p.seed = 3;
    p.cascade_sections = 4;
    const GeneratedDesign d = generate_design(p);
    for (const int extra : {0, 2}) {
      const AllocProblem prob(*d.schedule, FuPool::standard(d.fus),
                              d.min_regs + extra);
      for (uint64_t seed = 1; seed <= 3; ++seed)
        expect_agreement(prob, seed, counts,
                         std::string(gen_family_name(family)) + " +" +
                             std::to_string(extra));
    }
  }
  EXPECT_GT(counts.split, 0) << "no split placement exercised";
  EXPECT_GT(counts.errors, 0) << "no strict failure exercised";
}

// Digests of the seed-1 starts on the paper's two workloads, recorded from
// the reference implementation; see tests/test_golden.cpp's header before
// "fixing" these.
TEST(InitialOracle, PaperStartsArePinned) {
  struct Row {
    const char* name;
    Cdfg (*make)();
    int steps;
    uint64_t digest;
  };
  const Row rows[] = {
      {"ewf", make_ewf, 17, 0x7b9cb2ec2aec0ff9ull},
      {"dct", make_dct, 9, 0x019bdb0c1f9965d6ull},
  };
  for (const Row& row : rows) {
    const Cdfg g = row.make();
    const Schedule sched = schedule_min_fu(g, HwSpec{}, row.steps).schedule;
    const AllocProblem prob(sched, FuPool::standard(peak_fu_demand(sched)),
                            Lifetimes(sched).min_registers() + 1);
    const InitialOptions opts{.seed = 1};
    EXPECT_EQ(digest_binding(initial_allocation(prob, opts)), row.digest)
        << row.name << " actual 0x" << std::hex
        << digest_binding(initial_allocation(prob, opts));
    EXPECT_EQ(digest_binding(reference_initial_allocation(prob, opts)),
              row.digest)
        << row.name;
  }
}

}  // namespace
}  // namespace salsa
