// In-memory span tracer for the flow benchmark's traced mode. Spans are
// recorded around calls into the library's public functions from the
// benchmark's own code (nothing inside src/ is instrumented), kept in
// memory, and written out when the run ends.
//
// Single-threaded by design: the flow is a closed loop with one client, and
// every library call is pinned to one thread, so spans nest strictly and a
// parent stack suffices.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace flowbench {

struct Span {
  const char* name;  ///< a string literal, e.g. "core.initial"
  int parent;        ///< index of the enclosing span, -1 for a root
  int flow;          ///< flow id (see Tracer::new_flow)
  int64_t start_ns;
  int64_t end_ns;
  bool stale = false;  ///< the decomposition did not reproduce the facade
};

/// Summed over the spans of one name.
struct LayerTotal {
  double self_ms = 0;   ///< duration minus the time covered by child spans
  double total_ms = 0;  ///< inclusive duration
  long count = 0;
  long stale = 0;
};

class Tracer {
 public:
  Tracer();

  /// Starts a new flow and returns its id. Set-up work (corpus building,
  /// set-up allocations) runs in flows with `timed` false, so layer shares
  /// of flow time can leave it out.
  int new_flow(bool timed);
  int current_flow() const { return flow_; }

  /// Opens a span under the innermost open span of the current flow.
  int begin(const char* name);
  void end(int span);

  /// Adds to a named counter (e.g. "core.initial.failed").
  void add(const std::string& counter, double v) { counters_[counter] += v; }
  double counter(const std::string& name) const;

  /// Marks every "core.*" span of `flow` below the "core.allocate" facade
  /// span stale. Returns the number of spans marked.
  int mark_stale(int flow);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed self and inclusive time. With `timed_only`, only
  /// spans of timed flows count.
  std::map<std::string, LayerTotal> totals(bool timed_only) const;

  /// Per timed flow: the share of its root span's duration that its direct
  /// child spans cover.
  std::vector<double> flow_coverage() const;

  void write_json(std::ostream& out) const;

 private:
  int64_t now_ns() const;
  bool flow_timed(int flow) const;

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;          ///< stack of open span indices
  std::vector<bool> flow_timed_;   ///< indexed by flow id
  std::map<std::string, double> counters_;
  int flow_ = -1;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name)
      : t_(t), id_(t ? t->begin(name) : -1) {}
  ~ScopedSpan() {
    if (t_) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Compares the binding digest of a traced (decomposed) allocation with the
/// digest the facade returns for the same input. On a mismatch the flow's
/// core sub-spans are marked stale; the run itself does not fail. Returns
/// whether the digests match.
bool reconcile_decomposition(Tracer& t, int flow, uint64_t traced,
                             uint64_t reference);

}  // namespace flowbench
