// Fenwick (binary indexed) tree over non-negative int counts — the
// prefix-sum index behind the search engine's O(log n) weighted candidate
// selection (core/search_engine.h). The move proposers draw a uniform
// variate over a total candidate count and map it to the owning item
// (storage, live-list position) without walking every item; the counts are
// maintained incrementally as per-item deltas, applied when a move commits.
#pragma once

#include <vector>

#include "util/diagnostics.h"

namespace salsa {

class Fenwick {
 public:
  /// Shapes the tree to `n` items, all counts zero.
  void reset(int n) {
    SALSA_DCHECK(n >= 0);
    n_ = n;
    top_ = 1;
    while (top_ * 2 <= n_) top_ *= 2;
    t_.assign(static_cast<size_t>(n) + 1, 0);
    total_ = 0;
  }

  int size() const { return n_; }
  /// Sum of all counts. O(1) — maintained alongside the nodes.
  int total() const { return total_; }

  /// counts[i] += delta.
  void add(int i, int delta) {
    SALSA_DCHECK(i >= 0 && i < n_);
    if (delta == 0) return;
    total_ += delta;
    for (int k = i + 1; k <= n_; k += k & -k)
      t_[static_cast<size_t>(k)] += delta;
  }

  /// Sum of counts[0, i).
  int prefix(int i) const {
    SALSA_DCHECK(i >= 0 && i <= n_);
    int s = 0;
    for (int k = i; k > 0; k -= k & -k) s += t_[static_cast<size_t>(k)];
    return s;
  }

  /// The item whose cumulative range contains rank `k` (0 <= k < total()):
  /// the largest i with prefix(i) <= k. Stores k - prefix(i) — the rank
  /// within that item's count — into `rem`. O(log n) bit descend.
  int select(int k, int* rem) const {
    SALSA_DCHECK(k >= 0 && k < total_);
    int pos = 0;
    for (int pw = top_; pw > 0; pw >>= 1) {
      const int nxt = pos + pw;
      if (nxt <= n_ && t_[static_cast<size_t>(nxt)] <= k) {
        pos = nxt;
        k -= t_[static_cast<size_t>(pos)];
      }
    }
    *rem = k;
    return pos;  // prefix(pos) <= original k < prefix(pos + 1)
  }

  /// Node-for-node equality (same shape and counts) — the rebuild
  /// cross-check compares incrementally maintained trees against
  /// from-scratch ones.
  friend bool operator==(const Fenwick& a, const Fenwick& b) {
    return a.n_ == b.n_ && a.total_ == b.total_ && a.t_ == b.t_;
  }

 private:
  std::vector<int> t_;  ///< 1-based Fenwick nodes
  int n_ = 0;
  int top_ = 1;    ///< highest power of two <= n_
  int total_ = 0;  ///< cached sum of all counts
};

}  // namespace salsa
