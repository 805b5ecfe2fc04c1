#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace biglake {
namespace obs {

namespace {

/// Canonical series key: labels sorted by key, rendered `k="v",k2="v2"`.
/// Empty for the unlabeled series.
std::string CanonicalLabels(const LabelSet& labels) {
  if (labels.empty()) return "";
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    if (!out.empty()) out.push_back(',');
    out.append(k);
    out.append("=\"");
    // Prometheus label-value escaping: backslash, double quote, newline.
    for (char c : v) {
      if (c == '\\' || c == '"') out.push_back('\\');
      if (c == '\n') {
        out.append("\\n");
        continue;
      }
      out.push_back(c);
    }
    out.append("\"");
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Counter / Gauge / Histogram

void Gauge::SetMax(int64_t v) {
  int64_t cur = value_.load(std::memory_order_relaxed);
  while (v > cur &&
         !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramBounds HistogramBounds::Exponential(uint64_t start, double factor,
                                             size_t count) {
  HistogramBounds b;
  double v = static_cast<double>(start);
  for (size_t i = 0; i < count; ++i) {
    b.upper.push_back(static_cast<uint64_t>(v));
    v *= factor;
  }
  return b;
}

const HistogramBounds& DefaultSimMicrosBounds() {
  static const HistogramBounds* bounds = new HistogramBounds{
      {100, 1000, 10000, 100000, 1000000, 10000000, 100000000}};
  return *bounds;
}

const HistogramBounds& DefaultFanoutBounds() {
  static const HistogramBounds* bounds =
      new HistogramBounds{{1, 2, 4, 8, 16, 32, 64}};
  return *bounds;
}

const HistogramBounds& DefaultRowsBounds() {
  static const HistogramBounds* bounds =
      new HistogramBounds{{100, 1000, 4000, 16000, 64000, 256000, 1048576}};
  return *bounds;
}

const HistogramBounds& DefaultSelectivityBounds() {
  static const HistogramBounds* bounds =
      new HistogramBounds{{1, 2, 5, 10, 25, 50, 75, 90, 100}};
  return *bounds;
}

Histogram::Histogram(HistogramBounds bounds) : upper_(std::move(bounds.upper)) {
  assert(std::is_sorted(upper_.begin(), upper_.end()));
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(upper_.size() + 1);
  for (size_t i = 0; i <= upper_.size(); ++i) buckets_[i] = 0;
}

size_t Histogram::BucketIndexFor(uint64_t value) const {
  return static_cast<size_t>(
      std::lower_bound(upper_.begin(), upper_.end(), value) - upper_.begin());
}

void Histogram::Observe(uint64_t value) {
  buckets_[BucketIndexFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::BucketCount(size_t i) const {
  return buckets_[i].load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

enum class MetricType { kCounter, kGauge, kHistogram };

struct MetricsRegistry::Family {
  MetricType type;
  // Exactly one of these maps is populated, matching `type`. Keys are
  // canonical label strings.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  HistogramBounds bounds;  // histograms only
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Shard& MetricsRegistry::ShardFor(std::string_view name) {
  return shards_[std::hash<std::string_view>{}(name) % kShards];
}

const MetricsRegistry::Shard& MetricsRegistry::ShardFor(
    std::string_view name) const {
  return shards_[std::hash<std::string_view>{}(name) % kShards];
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const LabelSet& labels) {
  // Shared fallback for type-mismatched lookups; never exported.
  static Counter* sink = new Counter();
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.families.find(name);
  if (it == shard.families.end()) {
    auto family = std::make_unique<Family>();
    family->type = MetricType::kCounter;
    it = shard.families.emplace(std::string(name), std::move(family)).first;
  }
  if (it->second->type != MetricType::kCounter) return sink;
  auto& series = it->second->counters[CanonicalLabels(labels)];
  if (series == nullptr) series = std::make_unique<Counter>();
  return series.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 const LabelSet& labels) {
  static Gauge* sink = new Gauge();
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.families.find(name);
  if (it == shard.families.end()) {
    auto family = std::make_unique<Family>();
    family->type = MetricType::kGauge;
    it = shard.families.emplace(std::string(name), std::move(family)).first;
  }
  if (it->second->type != MetricType::kGauge) return sink;
  auto& series = it->second->gauges[CanonicalLabels(labels)];
  if (series == nullptr) series = std::make_unique<Gauge>();
  return series.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const LabelSet& labels,
                                         const HistogramBounds* bounds) {
  static Histogram* sink = new Histogram(DefaultSimMicrosBounds());
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.families.find(name);
  if (it == shard.families.end()) {
    auto family = std::make_unique<Family>();
    family->type = MetricType::kHistogram;
    family->bounds = bounds != nullptr ? *bounds : DefaultSimMicrosBounds();
    it = shard.families.emplace(std::string(name), std::move(family)).first;
  }
  if (it->second->type != MetricType::kHistogram) return sink;
  auto& series = it->second->histograms[CanonicalLabels(labels)];
  if (series == nullptr) {
    series = std::make_unique<Histogram>(it->second->bounds);
  }
  return series.get();
}

void MetricsRegistry::Describe(std::string_view name, std::string_view help,
                               std::string_view unit) {
  std::lock_guard<std::mutex> lock(describe_mu_);
  std::string text(help);
  if (!unit.empty()) {
    text.append(" [");
    text.append(unit);
    text.append("]");
  }
  help_[std::string(name)] = std::move(text);
}

uint64_t MetricsRegistry::CounterValue(std::string_view name,
                                       const LabelSet& labels) const {
  const Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.families.find(name);
  if (it == shard.families.end()) return 0;
  if (it->second->type != MetricType::kCounter) return 0;
  auto series = it->second->counters.find(CanonicalLabels(labels));
  if (series == it->second->counters.end()) return 0;
  return series->second->Value();
}

namespace {

void AppendSample(std::string* out, std::string_view name,
                  std::string_view suffix, std::string_view labels,
                  std::string_view extra_label, uint64_t value) {
  out->append(name);
  out->append(suffix);
  if (!labels.empty() || !extra_label.empty()) {
    out->push_back('{');
    out->append(labels);
    if (!labels.empty() && !extra_label.empty()) out->push_back(',');
    out->append(extra_label);
    out->push_back('}');
  }
  out->push_back(' ');
  out->append(std::to_string(value));
  out->push_back('\n');
}

}  // namespace

std::string MetricsRegistry::DumpMetrics() const {
  // Collect family names from every shard, then emit in sorted order so the
  // dump is stable regardless of shard hashing.
  std::vector<std::string> names;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, family] : shard.families) names.push_back(name);
  }
  std::sort(names.begin(), names.end());

  std::map<std::string, std::string, std::less<>> help;
  {
    std::lock_guard<std::mutex> lock(describe_mu_);
    help = help_;
  }

  std::string out;
  for (const std::string& name : names) {
    const Shard& shard = ShardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.families.find(name);
    if (it == shard.families.end()) continue;
    const Family& family = *it->second;
    auto help_it = help.find(name);
    if (help_it != help.end()) {
      out.append("# HELP ");
      out.append(name);
      out.push_back(' ');
      out.append(help_it->second);
      out.push_back('\n');
    }
    out.append("# TYPE ");
    out.append(name);
    switch (family.type) {
      case MetricType::kCounter:
        out.append(" counter\n");
        for (const auto& [labels, counter] : family.counters) {
          AppendSample(&out, name, "", labels, "", counter->Value());
        }
        break;
      case MetricType::kGauge:
        out.append(" gauge\n");
        for (const auto& [labels, gauge] : family.gauges) {
          out.append(name);
          if (!labels.empty()) {
            out.push_back('{');
            out.append(labels);
            out.push_back('}');
          }
          out.push_back(' ');
          out.append(std::to_string(gauge->Value()));
          out.push_back('\n');
        }
        break;
      case MetricType::kHistogram:
        out.append(" histogram\n");
        for (const auto& [labels, hist] : family.histograms) {
          uint64_t cumulative = 0;
          for (size_t i = 0; i < hist->upper().size(); ++i) {
            cumulative += hist->BucketCount(i);
            std::string le =
                "le=\"" + std::to_string(hist->upper()[i]) + "\"";
            AppendSample(&out, name, "_bucket", labels, le, cumulative);
          }
          cumulative += hist->BucketCount(hist->upper().size());
          AppendSample(&out, name, "_bucket", labels, "le=\"+Inf\"",
                       cumulative);
          AppendSample(&out, name, "_sum", labels, "", hist->Sum());
          AppendSample(&out, name, "_count", labels, "", hist->Count());
        }
        break;
    }
  }
  return out;
}

}  // namespace obs
}  // namespace biglake
