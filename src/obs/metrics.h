// Lock-sharded metrics registry: named counters, gauges and fixed-bucket
// histograms, cheap enough to sit on hot paths.
//
// Two properties matter here:
//
//  1. *Hot-path cost.* Metric handles (`Counter*`, `Gauge*`, `Histogram*`)
//     are resolved once (one sharded-map lookup under a shard mutex) and are
//     stable for the registry's lifetime; updates through a handle are single
//     relaxed atomic RMWs with no locking.
//
//  2. *Determinism under parallelism.* Counter adds and histogram
//     observations are commutative, so totals read after a parallel region
//     joins are identical whatever order its workers updated them in. Read
//     values only at serial points; nothing is buffered per task.
//
// Gauges are control-plane only (queue depths, high-water marks).

#ifndef BIGLAKE_OBS_METRICS_H_
#define BIGLAKE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace biglake {
namespace obs {

/// Label key/value pairs attached to one series of a metric family.
/// Order does not matter; the registry canonicalizes by sorting on key.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter.
class Counter {
 public:
  /// Adds `delta` (one relaxed atomic RMW).
  void Add(uint64_t delta) {
    if (delta != 0) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if `v` is larger (high-water-mark semantics).
  void SetMax(int64_t v);
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Inclusive upper bounds for histogram buckets, ascending. A final +Inf
/// bucket is implicit. Bounds are fixed at family creation.
struct HistogramBounds {
  std::vector<uint64_t> upper;

  /// {start, start*factor, ...} for `count` bounds.
  static HistogramBounds Exponential(uint64_t start, double factor,
                                     size_t count);
};

/// Default bounds for simulated-latency histograms (micros): 100µs .. 100s.
const HistogramBounds& DefaultSimMicrosBounds();
/// Default bounds for small-cardinality histograms (fan-out counts).
const HistogramBounds& DefaultFanoutBounds();
/// Default bounds for per-call row counts.
const HistogramBounds& DefaultRowsBounds();
/// Default bounds for percentage-valued histograms (filter selectivity).
const HistogramBounds& DefaultSelectivityBounds();

/// Fixed-bucket histogram of uint64 samples.
class Histogram {
 public:
  explicit Histogram(HistogramBounds bounds);

  /// Records one sample: three relaxed atomic RMWs.
  void Observe(uint64_t value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Non-cumulative count for bucket `i`; index `upper().size()` is +Inf.
  uint64_t BucketCount(size_t i) const;
  const std::vector<uint64_t>& upper() const { return upper_; }
  /// Index of the bucket a sample of `value` lands in (bounds inclusive).
  size_t BucketIndexFor(uint64_t value) const;

 private:
  std::vector<uint64_t> upper_;
  // upper_.size() + 1 buckets; the last catches values above every bound.
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Registry of metric families, lock-sharded by family name so concurrent
/// handle resolution for unrelated metrics never contends.
class MetricsRegistry {
 public:
  // Out-of-line: the nested Family type is incomplete here, and the inline
  // defaulted special members would need its destructor.
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& Default();

  /// Returns the (stable) handle for the series `name{labels}`, creating the
  /// family and/or series on first use. A name must keep one type for the
  /// registry's lifetime; a type-mismatched lookup returns a detached sink
  /// metric so callers never crash (it is a programming error, and the
  /// series will be absent from DumpMetrics()).
  Counter* GetCounter(std::string_view name, const LabelSet& labels = {});
  Gauge* GetGauge(std::string_view name, const LabelSet& labels = {});
  /// `bounds` is consulted only when the family is created; pass nullptr for
  /// DefaultSimMicrosBounds().
  Histogram* GetHistogram(std::string_view name, const LabelSet& labels = {},
                          const HistogramBounds* bounds = nullptr);

  /// Attaches HELP text (and optional unit, appended to the help line) shown
  /// in DumpMetrics().
  void Describe(std::string_view name, std::string_view help,
                std::string_view unit = "");

  /// Prometheus text exposition format. Families sorted by name, series by
  /// canonical label string, so output is deterministic.
  std::string DumpMetrics() const;

  /// Test helper: folded value of `name{labels}`, or 0 if absent.
  uint64_t CounterValue(std::string_view name,
                        const LabelSet& labels = {}) const;

 private:
  struct Family;
  struct Shard;
  static constexpr size_t kShards = 16;

  Shard& ShardFor(std::string_view name);
  const Shard& ShardFor(std::string_view name) const;

  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Family>, std::less<>> families;
  };
  Shard shards_[kShards];

  mutable std::mutex describe_mu_;
  std::map<std::string, std::string, std::less<>> help_;
};

}  // namespace obs
}  // namespace biglake

#endif  // BIGLAKE_OBS_METRICS_H_
