#ifndef DISCSEC_PERFBENCH_STATS_H_
#define DISCSEC_PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of raw samples: the smallest sample such that at
/// least `pct` percent of all samples are <= it (rank ceil(pct/100 * n)).
/// Sorts `samples` in place. Returns 0 for an empty set.
double NearestRank(std::vector<double>* samples, double pct);

/// Nearest-rank median.
inline double Median(std::vector<double> samples) {
  return NearestRank(&samples, 50.0);
}

/// How many samples lie strictly above the nearest-rank `pct` percentile —
/// the tail a reported percentile rests on.
size_t SamplesBeyond(const std::vector<double>& samples, double pct);

/// One reported metric: name, value and unit, printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports. `correct` is false when any output check
/// failed; `failed` counts operations that did not complete successfully.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First correctness violation, for the human-readable log.
  std::string violation;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Violate(const std::string& what) {
    if (correct) violation = what;
    correct = false;
  }
};

/// The result line: one JSON object with exactly the keys correct,
/// attempted, failed and metrics, every value printed at full precision.
std::string ResultJson(const RunResult& result);

/// Peak resident set size of this process so far, in MiB (ru_maxrss).
double PeakRssMb();

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// SplitMix64: derives independent per-op seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // DISCSEC_PERFBENCH_STATS_H_
