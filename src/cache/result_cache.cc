#include "cache/result_cache.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace biglake {
namespace cache {

ResultCache::ResultCache(SimEnv* env)
    : env_(env),
      entries_(obs::MetricsRegistry::Default().GetGauge(
          METRIC_RESULTCACHE_BYTES_PINNED)) {
  auto& reg = obs::MetricsRegistry::Default();
  hits_ = reg.GetCounter(METRIC_RESULTCACHE_HITS);
  misses_ = reg.GetCounter(METRIC_RESULTCACHE_MISSES);
  inserts_ = reg.GetCounter(METRIC_RESULTCACHE_INSERTS);
  evictions_ = reg.GetCounter(METRIC_RESULTCACHE_EVICTIONS);
  invalidations_ = reg.GetCounter(METRIC_RESULTCACHE_INVALIDATIONS);
  admission_rejections_ =
      reg.GetCounter(METRIC_CACHE_ADMISSION_REJECTED, {{"cache", "result"}});
}

void ResultCache::Configure(const ResultCacheOptions& options) {
  options_ = options;
  options_.shard_count = std::max<uint32_t>(1, options.shard_count);
  Absorb(entries_.Configure(options_.capacity_bytes, options_.shard_count,
                            options_.admission_policy));
}

std::shared_ptr<const RecordBatch> ResultCache::Get(const std::string& key) {
  if (!enabled()) return nullptr;
  env_->Charge("resultcache.probes", options_.probe_latency);
  std::shared_ptr<const RecordBatch> found = entries_.Find(key).batch;
  entries_.Touch(key);
  if (found == nullptr) {
    miss_count_.fetch_add(1, std::memory_order_relaxed);
    misses_->Increment();
    env_->counters().Add("resultcache.misses", 1);
    return nullptr;
  }
  hit_count_.fetch_add(1, std::memory_order_relaxed);
  hits_->Increment();
  env_->counters().Add("resultcache.hits", 1);
  // Deterministic replay cost: serving N rows from the cache is O(N) serial
  // virtual time, independent of the engine's worker count. Fractional
  // per-row micros carry over so small results are not silently free.
  serve_carry_ +=
      options_.hit_micros_per_row * static_cast<double>(found->num_rows());
  auto carry = static_cast<SimMicros>(serve_carry_);
  serve_carry_ -= static_cast<double>(carry);
  env_->Charge("resultcache.serve", options_.hit_base_latency + carry);
  return found;
}

void ResultCache::Put(const std::string& key,
                      const std::vector<std::string>& tables,
                      std::shared_ptr<const RecordBatch> batch) {
  if (!enabled() || batch == nullptr) return;
  const uint64_t bytes = batch->MemoryBytes();
  // A live key (e.g. cache warmed between probe and insert) keeps its
  // resident value; the core only refreshes its recency.
  Shards::Removal removal =
      entries_.Insert(key, Cached{std::move(batch), tables}, bytes);
  if (!removal.inserted) return;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    for (const std::string& t : tables) by_table_[t].insert(key);
  }
  ++insert_count_;
  inserts_->Increment();
  env_->counters().Add("resultcache.inserts", 1);
  Absorb(removal);
}

uint64_t ResultCache::Absorb(const Shards::Removal& removal) {
  if (removal.evictions > 0) {
    eviction_count_ += removal.evictions;
    evictions_->Add(removal.evictions);
    env_->counters().Add("resultcache.evictions", removal.evictions);
  }
  if (removal.rejections > 0) {
    admission_rejection_count_ += removal.rejections;
    admission_rejections_->Add(removal.rejections);
    env_->counters().Add("resultcache.admission_rejected",
                         removal.rejections);
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  for (const auto& [key, cached] : removal.removed) {
    for (const std::string& t : cached.tables) {
      auto bit = by_table_.find(t);
      if (bit == by_table_.end()) continue;
      bit->second.erase(key);
      if (bit->second.empty()) by_table_.erase(bit);
    }
  }
  return removal.removed.size();
}

uint64_t ResultCache::InvalidateTable(const std::string& table_id) {
  std::set<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    auto bit = by_table_.find(table_id);
    if (bit == by_table_.end()) return 0;
    keys = bit->second;
  }
  const uint64_t dropped = Absorb(entries_.EraseKeys(keys));
  if (dropped > 0) {
    invalidation_count_ += dropped;
    invalidations_->Add(dropped);
    env_->counters().Add("resultcache.invalidations", dropped);
  }
  return dropped;
}

void ResultCache::Clear() { Absorb(entries_.Clear()); }

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats out;
  out.hits = hit_count_.load(std::memory_order_relaxed);
  out.misses = miss_count_.load(std::memory_order_relaxed);
  out.inserts = insert_count_;
  out.evictions = eviction_count_;
  out.invalidations = invalidation_count_;
  out.admission_rejections = admission_rejection_count_;
  const Shards::Totals totals = entries_.totals();
  out.entries = totals.entries;
  out.bytes_pinned = totals.bytes;
  return out;
}

}  // namespace cache
}  // namespace biglake
