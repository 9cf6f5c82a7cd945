#include "trace.h"

#include <cstring>
#include <stdexcept>

namespace flowbench {

Tracer::Tracer() : t0_(std::chrono::steady_clock::now()) {}

int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int Tracer::new_flow(bool timed) {
  if (!open_.empty()) throw std::logic_error("new_flow inside an open span");
  flow_ = static_cast<int>(flow_timed_.size());
  flow_timed_.push_back(timed);
  return flow_;
}

bool Tracer::flow_timed(int flow) const {
  return flow >= 0 && flow < static_cast<int>(flow_timed_.size()) &&
         flow_timed_[static_cast<size_t>(flow)];
}

int Tracer::begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), flow_,
                        now_ns(), -1});
  open_.push_back(id);
  return id;
}

void Tracer::end(int span) {
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<size_t>(span)].end_ns = now_ns();
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

int Tracer::mark_stale(int flow) {
  int marked = 0;
  for (Span& s : spans_) {
    if (s.flow != flow || std::strncmp(s.name, "core.", 5) != 0 ||
        std::strcmp(s.name, "core.allocate") == 0)
      continue;
    s.stale = true;
    ++marked;
  }
  return marked;
}

std::map<std::string, LayerTotal> Tracer::totals(bool timed_only) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, LayerTotal> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (timed_only && !flow_timed(s.flow)) continue;
    LayerTotal& lt = out[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    lt.total_ms += static_cast<double>(dur) * 1e-6;
    lt.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
    ++lt.count;
    if (s.stale) ++lt.stale;
  }
  return out;
}

std::vector<double> Tracer::flow_coverage() const {
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent != -1 || !flow_timed(s.flow)) continue;
    const int64_t dur = s.end_ns - s.start_ns;
    out.push_back(dur > 0 ? static_cast<double>(covered[i]) /
                                static_cast<double>(dur)
                          : 1.0);
  }
  return out;
}

void Tracer::write_json(std::ostream& out) const {
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"parent\": " << s.parent << ", \"flow\": " << s.flow
        << ", \"timed\": " << (flow_timed(s.flow) ? "true" : "false")
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"stale\": " << (s.stale ? "true" : "false") << "}";
  }
  out << "\n], \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << v;
    first = false;
  }
  out << "}}\n";
}

bool reconcile_decomposition(Tracer& t, int flow, uint64_t traced,
                             uint64_t reference) {
  if (traced == reference) return true;
  t.mark_stale(flow);
  return false;
}

}  // namespace flowbench
