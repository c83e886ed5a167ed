#ifndef DISCSEC_OBS_METRICS_H_
#define DISCSEC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace discsec {
namespace obs {

/// Monotonic counter. Add() is a relaxed atomic increment — safe from any
/// thread, no ordering guarantees needed (metrics are advisory).
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Sets to `value` if it exceeds the current reading. Used when absorbing
  /// component stats that are themselves cumulative (idempotent re-absorbs).
  void MaxTo(uint64_t value) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < value &&
           !value_.compare_exchange_weak(cur, value,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Overwrites the reading. For gauge-like values (cache entry counts,
  /// breaker state) that can move both ways.
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Latency histogram with exponential (power-of-2) microsecond buckets:
/// bucket i counts samples in [2^i, 2^(i+1)) µs, bucket 0 is [0, 2) µs.
/// 32 buckets cover up to ~71 minutes. All atomics, all relaxed.
class Histogram {
 public:
  static constexpr int kBuckets = 32;

  void Observe(uint64_t micros);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_micros() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max_micros() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }

  /// Approximate quantile (0..1) from bucket boundaries; returns the upper
  /// edge of the bucket containing the q-th sample, 0 when empty.
  uint64_t ApproxQuantileMicros(double q) const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// Point-in-time copy of one histogram, for snapshots.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum_micros = 0;
  uint64_t max_micros = 0;
  uint64_t p50_micros = 0;
  uint64_t p99_micros = 0;
  std::vector<uint64_t> buckets;  ///< kBuckets entries
};

/// Point-in-time copy of the whole registry.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  ///< sorted by name
  std::vector<HistogramSnapshot> histograms;               ///< sorted by name

  /// Counter value by exact name; 0 when absent.
  uint64_t counter(std::string_view name) const;
  /// Histogram by exact name; nullptr when absent.
  const HistogramSnapshot* histogram(std::string_view name) const;

  /// Pretty-printed JSON: {"counters":{...},"histograms":{name:{count,...}}}.
  std::string ToJson() const;
};

/// Named counters and histograms. Lookup interns the name under a mutex and
/// returns a stable pointer; instruments themselves are lock-free, so hot
/// paths should cache the pointer (or accept one lock per lookup — still
/// cheap next to crypto work). Metric names use dotted lowercase paths,
/// e.g. "locate_cache.hits", "player.track.verify_us".
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  // node-based map: stable element addresses across inserts
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// RAII latency sample: observes elapsed wall time into `hist` (when
/// non-null) at destruction. Null histogram = disabled, no clock reads.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedLatency() {
    if (hist_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace discsec

#endif  // DISCSEC_OBS_METRICS_H_
