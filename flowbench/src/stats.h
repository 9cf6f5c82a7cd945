// Sample statistics, metric naming and the result line of the flow
// benchmark. Kept free of library types so the benchmark's own tests can
// pin the reporting rules in isolation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace flowbench {

/// Median of `samples` (mean of the two middle values for an even count).
/// 0 for an empty sample.
double median(std::vector<double> samples);

/// The tail statistic: the highest of the percentiles 50, 75, 90 and 95
/// that has at least ten samples beyond it (nearest rank: the p-th
/// percentile is sorted[ceil(p * n / 100) - 1], and the samples beyond it are
/// the n - ceil(p * n / 100) after it). The ladder stops at 95 because
/// higher percentiles of a run on a shared host measure interference from
/// other processes more than the program. With fewer than twenty samples no
/// percentile qualifies; the maximum is reported with `supported` false and
/// `beyond` 0. Percentiles above `max_percentile` are skipped: a workload
/// fixes the rung its shortest runs support, so that a faster host or
/// program, which gives a run more samples, does not move the tail to a
/// higher percentile.
struct Tail {
  double value = 0;
  double percentile = 0;
  int beyond = 0;
  int n = 0;
  bool supported = false;
};
Tail tail_percentile(std::vector<double> samples, int max_percentile = 95);

/// Metric names: 1 to 64 characters from letters, digits, '_', '.' and '-',
/// starting with a letter or digit.
bool valid_metric_name(std::string_view name);
/// Units: 1 to 16 characters from letters, digits, '_', '/', '%', '.', '-'.
bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Attempted/failed flow counter. A flow fails when its body returns a
/// non-empty error or throws; either way it counts as attempted.
class FlowCounter {
 public:
  /// Runs `body`; returns the error ("" on success). Exceptions are caught
  /// and reported as errors.
  std::string run(const std::function<std::string()>& body);

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  double failed_frac() const {
    return attempted_ ? static_cast<double>(failed_) /
                            static_cast<double>(attempted_)
                      : 0.0;
  }

 private:
  long attempted_ = 0;
  long failed_ = 0;
};

/// The benchmark's result line: one JSON object with the keys correct,
/// attempted, failed and metrics. Throws std::invalid_argument on an invalid
/// or duplicate metric name or unit, or a non-finite value.
std::string result_json(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace flowbench
