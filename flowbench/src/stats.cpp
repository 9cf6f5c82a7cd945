#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <set>
#include <stdexcept>

namespace flowbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail_percentile(std::vector<double> samples, int max_percentile) {
  Tail t;
  t.n = static_cast<int>(samples.size());
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  for (const int p : {95, 90, 75, 50}) {
    if (p > max_percentile) continue;
    const int rank = (p * t.n + 99) / 100;  // ceil(p * n / 100)
    if (t.n - rank >= 10) {
      t.value = samples[static_cast<size_t>(rank - 1)];
      t.percentile = p;
      t.beyond = t.n - rank;
      t.supported = true;
      return t;
    }
  }
  t.value = samples.back();
  t.percentile = 100.0;
  return t;
}

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

std::string FlowCounter::run(const std::function<std::string()>& body) {
  std::string err;
  try {
    err = body();
  } catch (const std::exception& e) {
    err = std::string("threw: ") + e.what();
  } catch (...) {
    err = "threw a non-standard exception";
  }
  ++attempted_;
  if (!err.empty()) ++failed_;
  return err;
}

std::string result_json(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second)
      throw std::invalid_argument("bad or duplicate metric name '" + m.name +
                                  "'");
    if (!valid_unit(m.unit))
      throw std::invalid_argument("bad unit '" + m.unit + "' for " + m.name);
    if (!std::isfinite(m.value))
      throw std::invalid_argument("non-finite value for " + m.name);
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: the latter survives exec, so a
  // benchmark started from a larger parent process would report the
  // parent's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

}  // namespace flowbench
