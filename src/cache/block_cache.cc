#include "cache/block_cache.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace biglake {
namespace cache {

uint64_t ProjectionFingerprint(std::span<const std::string> columns) {
  // Commutative combine (sum of independent per-column hashes): two engines
  // listing the same column set in different orders share cached blocks.
  // The per-column hashes are deduplicated first so a repeated column name
  // cannot fork the fingerprint away from the equivalent distinct set.
  std::vector<uint64_t> hashes;
  hashes.reserve(columns.size());
  for (const std::string& c : columns) hashes.push_back(KeyHash(c));
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  uint64_t h = 0xcbf29ce484222325ULL + hashes.size();
  for (uint64_t x : hashes) h += x;
  return h;
}

std::string ObjectKeyPrefix(const char* cloud, const std::string& bucket,
                            const std::string& object) {
  // Length prefixes make the encoding injective: `("a|b", "c")` and
  // `("a", "b|c")` cannot collide, whatever characters the names contain.
  // `cloud` is an internal constant ("gcp"/"aws"/"azure"), never adversarial.
  return StrCat(cloud, "|", bucket.size(), ":", bucket, "|", object.size(),
                ":", object, "@");
}

std::string FooterKey(const std::string& object_prefix, uint64_t generation) {
  return StrCat(object_prefix, generation, "|footer");
}

std::string BlockKey(const std::string& object_prefix, uint64_t generation,
                     size_t row_group, uint64_t projection_fp) {
  return StrCat(object_prefix, generation, "|rg", row_group, "|p",
                projection_fp);
}

namespace internal {
CacheTxn*& CurrentTxn() {
  static thread_local CacheTxn* txn = nullptr;
  return txn;
}
}  // namespace internal

BlockCache::BlockCache(SimEnv* env) : env_(env) {
  auto& reg = obs::MetricsRegistry::Default();
  hits_block_ = reg.GetCounter(METRIC_CACHE_HITS, {{"kind", "block"}});
  hits_footer_ = reg.GetCounter(METRIC_CACHE_HITS, {{"kind", "footer"}});
  misses_block_ = reg.GetCounter(METRIC_CACHE_MISSES, {{"kind", "block"}});
  misses_footer_ = reg.GetCounter(METRIC_CACHE_MISSES, {{"kind", "footer"}});
  evictions_ = reg.GetCounter(METRIC_CACHE_EVICTIONS);
  invalidations_ = reg.GetCounter(METRIC_CACHE_INVALIDATIONS);
  admission_rejections_ =
      reg.GetCounter(METRIC_CACHE_ADMISSION_REJECTED, {{"cache", "block"}});
  bytes_pinned_ = reg.GetGauge(METRIC_CACHE_BYTES_PINNED);
  shards_.resize(8);
  for (auto& s : shards_) s = std::make_unique<Shard>();
}

BlockCache::~BlockCache() {
  // Return this instance's pinned bytes so the process-global gauge stays
  // meaningful across env lifetimes in one test binary.
  for (auto& s : shards_) bytes_pinned_->Add(-static_cast<int64_t>(s->bytes_used));
}

void BlockCache::Configure(const BlockCacheOptions& options) {
  uint32_t shard_count = std::max<uint32_t>(1, options.shard_count);
  if (shard_count != shards_.size()) {
    Clear();
    shards_.resize(shard_count);
    for (auto& s : shards_) {
      if (s == nullptr) s = std::make_unique<Shard>();
    }
  }
  capacity_ = options.capacity_bytes;
  per_shard_capacity_ = capacity_ / shards_.size();
  policy_ = options.admission_policy;
  if (policy_ == AdmissionPolicy::kTinyLfu) {
    uint64_t entries = options.sketch_entries;
    if (entries == 0) entries = capacity_ / (64ull << 10);
    sketch_.Reset(entries);
  }
  for (auto& s : shards_) EvictOverflow(*s);
}

BlockCache::Shard& BlockCache::ShardFor(const std::string& key) {
  return *shards_[KeyHash(key) % shards_.size()];
}

void BlockCache::RecordAccess(const std::string& key) {
  if (policy_ != AdmissionPolicy::kTinyLfu) return;
  if (CacheTxn* txn = internal::CurrentTxn()) {
    CacheTxn::Op op;
    op.key = key;
    op.access_only = true;
    txn->ops_.push_back(std::move(op));
  } else {
    sketch_.Increment(KeyHash(key));
  }
}

void BlockCache::CountHit(bool footer) {
  hit_count_.fetch_add(1, std::memory_order_relaxed);
  (footer ? hits_footer_ : hits_block_)->Increment();
  env_->counters().Add(footer ? "blockcache.footer_hits" : "blockcache.hits",
                       1);
}

void BlockCache::CountMiss(bool footer) {
  miss_count_.fetch_add(1, std::memory_order_relaxed);
  (footer ? misses_footer_ : misses_block_)->Increment();
  env_->counters().Add(
      footer ? "blockcache.footer_misses" : "blockcache.misses", 1);
}

std::shared_ptr<const RecordBatch> BlockCache::PeekBlock(
    const std::string& key, bool* pending) {
  if (!enabled()) return nullptr;
  if (CacheTxn* txn = internal::CurrentTxn()) {
    auto pit = txn->pending_.find(key);
    if (pit != txn->pending_.end() &&
        txn->ops_[pit->second].block != nullptr) {
      if (pending != nullptr) *pending = true;
      return txn->ops_[pit->second].block;
    }
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : it->second.block;
}

std::shared_ptr<const RecordBatch> BlockCache::GetBlock(
    const std::string& key) {
  if (!enabled()) return nullptr;
  bool pending = false;
  std::shared_ptr<const RecordBatch> found = PeekBlock(key, &pending);
  if (found == nullptr) {
    CountMiss(/*footer=*/false);
    RecordAccess(key);
    return nullptr;
  }
  CountHit(/*footer=*/false);
  if (pending) {
    RecordAccess(key);
  } else if (CacheTxn* txn = internal::CurrentTxn()) {
    txn->ops_.push_back({key, nullptr, nullptr, 0});  // buffered LRU touch
  } else {
    ApplyTouch(key);
  }
  return found;
}

std::shared_ptr<const ParquetFileMeta> BlockCache::GetFooter(
    const std::string& key) {
  if (!enabled()) return nullptr;
  if (CacheTxn* txn = internal::CurrentTxn()) {
    auto pit = txn->pending_.find(key);
    if (pit != txn->pending_.end()) {
      const CacheTxn::Op& op = txn->ops_[pit->second];
      if (op.footer != nullptr) {
        CountHit(/*footer=*/true);
        RecordAccess(key);
        return op.footer;
      }
    }
  }
  std::shared_ptr<const ParquetFileMeta> found;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) found = it->second.footer;
  }
  if (found == nullptr) {
    CountMiss(/*footer=*/true);
    RecordAccess(key);
    return nullptr;
  }
  CountHit(/*footer=*/true);
  if (CacheTxn* txn = internal::CurrentTxn()) {
    txn->ops_.push_back({key, nullptr, nullptr, 0});
  } else {
    ApplyTouch(key);
  }
  return found;
}

void BlockCache::PutBlock(const std::string& key,
                          std::shared_ptr<const RecordBatch> block) {
  if (!enabled() || block == nullptr) return;
  uint64_t bytes = block->MemoryBytes();
  if (CacheTxn* txn = internal::CurrentTxn()) {
    txn->ops_.push_back({key, std::move(block), nullptr, bytes});
    txn->pending_[key] = txn->ops_.size() - 1;
    return;
  }
  ApplyInsert(key, Entry{std::move(block), nullptr, bytes, 0});
}

void BlockCache::PutFooter(const std::string& key,
                           std::shared_ptr<const ParquetFileMeta> footer,
                           uint64_t approx_bytes) {
  if (!enabled() || footer == nullptr) return;
  if (CacheTxn* txn = internal::CurrentTxn()) {
    txn->ops_.push_back({key, nullptr, std::move(footer), approx_bytes});
    txn->pending_[key] = txn->ops_.size() - 1;
    return;
  }
  ApplyInsert(key, Entry{nullptr, std::move(footer), approx_bytes, 0});
}

void BlockCache::ApplyOp(CacheTxn::Op& op) {
  if (op.access_only) {
    if (policy_ == AdmissionPolicy::kTinyLfu) sketch_.Increment(KeyHash(op.key));
    return;
  }
  if (op.block != nullptr || op.footer != nullptr) {
    ApplyInsert(op.key,
                Entry{std::move(op.block), std::move(op.footer), op.bytes, 0});
  } else {
    ApplyTouch(op.key);
  }
}

void BlockCache::ApplyTouch(const std::string& key) {
  if (policy_ == AdmissionPolicy::kTinyLfu) sketch_.Increment(KeyHash(key));
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;  // evicted since the lookup
  shard.lru.erase(it->second.stamp);
  it->second.stamp = ++seq_;
  shard.lru[it->second.stamp] = key;
}

void BlockCache::ApplyInsert(const std::string& key, Entry entry) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Re-insert of an existing key (e.g. a retried stream attempt): refresh
    // recency, keep the resident value.
    shard.lru.erase(it->second.stamp);
    it->second.stamp = ++seq_;
    shard.lru[it->second.stamp] = key;
    return;
  }
  entry.stamp = ++seq_;
  shard.bytes_used += entry.bytes;
  bytes_pinned_->Add(static_cast<int64_t>(entry.bytes));
  shard.lru[entry.stamp] = key;
  shard.entries.emplace(key, std::move(entry));
  if (policy_ == AdmissionPolicy::kTinyLfu) {
    EvictByFrequency(shard, key);
  } else {
    EvictOverflow(shard);
  }
}

void BlockCache::EvictOverflow(Shard& shard) {
  while (shard.bytes_used > per_shard_capacity_ && !shard.lru.empty()) {
    auto oldest = shard.lru.begin();
    auto it = shard.entries.find(oldest->second);
    shard.bytes_used -= it->second.bytes;
    bytes_pinned_->Add(-static_cast<int64_t>(it->second.bytes));
    shard.entries.erase(it);
    shard.lru.erase(oldest);
    ++eviction_count_;
    evictions_->Increment();
    env_->counters().Add("blockcache.evictions", 1);
  }
}

void BlockCache::EvictByFrequency(Shard& shard, const std::string& candidate) {
  while (shard.bytes_used > per_shard_capacity_ && !shard.entries.empty()) {
    // Lowest frequency-per-byte loses; compare freq_a/bytes_a <
    // freq_b/bytes_b by cross-multiplication (freq <= 15, so no overflow and
    // no floating point), ties broken oldest-stamp-first. Map iteration
    // order makes the scan deterministic.
    auto victim = shard.entries.begin();
    uint64_t victim_freq = sketch_.Estimate(KeyHash(victim->first));
    for (auto it = std::next(shard.entries.begin());
         it != shard.entries.end(); ++it) {
      uint64_t freq = sketch_.Estimate(KeyHash(it->first));
      uint64_t lhs = freq * victim->second.bytes;
      uint64_t rhs = victim_freq * it->second.bytes;
      if (lhs < rhs ||
          (lhs == rhs && it->second.stamp < victim->second.stamp)) {
        victim = it;
        victim_freq = freq;
      }
    }
    const bool rejected_candidate = victim->first == candidate;
    shard.bytes_used -= victim->second.bytes;
    bytes_pinned_->Add(-static_cast<int64_t>(victim->second.bytes));
    shard.lru.erase(victim->second.stamp);
    shard.entries.erase(victim);
    if (rejected_candidate) {
      ++admission_rejection_count_;
      admission_rejections_->Increment();
      env_->counters().Add("blockcache.admission_rejected", 1);
    } else {
      ++eviction_count_;
      evictions_->Increment();
      env_->counters().Add("blockcache.evictions", 1);
    }
  }
}

uint64_t BlockCache::InvalidateObject(const char* cloud,
                                      const std::string& bucket,
                                      const std::string& object) {
  const std::string prefix = ObjectKeyPrefix(cloud, bucket, object);
  uint64_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.lower_bound(prefix);
    while (it != shard.entries.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0) {
      shard.bytes_used -= it->second.bytes;
      bytes_pinned_->Add(-static_cast<int64_t>(it->second.bytes));
      shard.lru.erase(it->second.stamp);
      it = shard.entries.erase(it);
      ++dropped;
    }
  }
  if (dropped > 0) {
    invalidation_count_ += dropped;
    invalidations_->Add(dropped);
    env_->counters().Add("blockcache.invalidations", dropped);
  }
  return dropped;
}

void BlockCache::FoldTxn(CacheTxn* txn) {
  if (txn->ops_.empty()) return;
  CacheTxn* current = internal::CurrentTxn();
  if (current != nullptr && current != txn) {
    // Nested fan-out: a prefetch unit's ops join its stream task's txn so
    // the launcher still folds everything in one deterministic pass.
    for (CacheTxn::Op& op : txn->ops_) {
      current->ops_.push_back(std::move(op));
      if (current->ops_.back().block != nullptr ||
          current->ops_.back().footer != nullptr) {
        current->pending_[current->ops_.back().key] = current->ops_.size() - 1;
      }
    }
  } else {
    for (CacheTxn::Op& op : txn->ops_) ApplyOp(op);
  }
  txn->ops_.clear();
  txn->pending_.clear();
}

void BlockCache::FoldTxns(std::vector<CacheTxn>* txns) {
  for (CacheTxn& txn : *txns) FoldTxn(&txn);
}

void BlockCache::Clear() {
  for (auto& shard_ptr : shards_) {
    if (shard_ptr == nullptr) continue;
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes_pinned_->Add(-static_cast<int64_t>(shard.bytes_used));
    shard.entries.clear();
    shard.lru.clear();
    shard.bytes_used = 0;
  }
}

double BlockCache::FillFraction() const {
  if (capacity_ == 0) return 0.0;
  uint64_t bytes = 0;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
    bytes += shard_ptr->bytes_used;
  }
  return static_cast<double>(bytes) / static_cast<double>(capacity_);
}

BlockCacheStats BlockCache::Stats() const {
  BlockCacheStats out;
  out.hits = hit_count_.load(std::memory_order_relaxed);
  out.misses = miss_count_.load(std::memory_order_relaxed);
  out.evictions = eviction_count_;
  out.invalidations = invalidation_count_;
  out.admission_rejections = admission_rejection_count_;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
    out.entries += shard_ptr->entries.size();
    out.bytes_pinned += shard_ptr->bytes_used;
  }
  return out;
}

}  // namespace cache
}  // namespace biglake
