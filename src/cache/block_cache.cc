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

BlockCache::BlockCache(SimEnv* env)
    : env_(env),
      entries_(obs::MetricsRegistry::Default().GetGauge(
          METRIC_CACHE_BYTES_PINNED)) {
  auto& reg = obs::MetricsRegistry::Default();
  hits_block_ = reg.GetCounter(METRIC_CACHE_HITS, {{"kind", "block"}});
  hits_footer_ = reg.GetCounter(METRIC_CACHE_HITS, {{"kind", "footer"}});
  misses_block_ = reg.GetCounter(METRIC_CACHE_MISSES, {{"kind", "block"}});
  misses_footer_ = reg.GetCounter(METRIC_CACHE_MISSES, {{"kind", "footer"}});
  evictions_ = reg.GetCounter(METRIC_CACHE_EVICTIONS);
  invalidations_ = reg.GetCounter(METRIC_CACHE_INVALIDATIONS);
  admission_rejections_ =
      reg.GetCounter(METRIC_CACHE_ADMISSION_REJECTED, {{"cache", "block"}});
}

void BlockCache::Configure(const BlockCacheOptions& options) {
  CountEvictions(entries_.Configure(options.capacity_bytes,
                                    options.shard_count,
                                    options.admission_policy));
}

void BlockCache::Submit(CacheTxn::Op op) {
  CacheTxn* txn = internal::CurrentTxn();
  if (txn == nullptr) {
    ApplyOp(op);
    return;
  }
  if (op.block != nullptr || op.footer != nullptr) {
    txn->pending_[op.key] = txn->ops_.size();
  }
  txn->ops_.push_back(std::move(op));
}

void BlockCache::RecordAccess(const std::string& key) {
  if (entries_.policy() != AdmissionPolicy::kTinyLfu) return;
  Submit({key, nullptr, nullptr, 0, /*access_only=*/true});
}

void BlockCache::Touch(const std::string& key) {
  Submit({key, nullptr, nullptr, 0});
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
  return entries_.Find(key).block;
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
  } else {
    Touch(key);
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
  std::shared_ptr<const ParquetFileMeta> found = entries_.Find(key).footer;
  if (found == nullptr) {
    CountMiss(/*footer=*/true);
    RecordAccess(key);
    return nullptr;
  }
  CountHit(/*footer=*/true);
  Touch(key);
  return found;
}

void BlockCache::PutBlock(const std::string& key,
                          std::shared_ptr<const RecordBatch> block) {
  if (!enabled() || block == nullptr) return;
  uint64_t bytes = block->MemoryBytes();
  Submit({key, std::move(block), nullptr, bytes});
}

void BlockCache::PutFooter(const std::string& key,
                           std::shared_ptr<const ParquetFileMeta> footer,
                           uint64_t approx_bytes) {
  if (!enabled() || footer == nullptr) return;
  Submit({key, nullptr, std::move(footer), approx_bytes});
}

void BlockCache::ApplyOp(CacheTxn::Op& op) {
  if (op.access_only) {
    entries_.RecordAccess(op.key);
  } else if (op.block != nullptr || op.footer != nullptr) {
    CountEvictions(entries_.Insert(
        op.key, Cached{std::move(op.block), std::move(op.footer)}, op.bytes));
  } else {
    entries_.Touch(op.key);
  }
}

void BlockCache::CountEvictions(const Shards::Removal& removal) {
  if (removal.evictions > 0) {
    eviction_count_ += removal.evictions;
    evictions_->Add(removal.evictions);
    env_->counters().Add("blockcache.evictions", removal.evictions);
  }
  if (removal.rejections > 0) {
    admission_rejection_count_ += removal.rejections;
    admission_rejections_->Add(removal.rejections);
    env_->counters().Add("blockcache.admission_rejected", removal.rejections);
  }
}

uint64_t BlockCache::InvalidateObject(const char* cloud,
                                      const std::string& bucket,
                                      const std::string& object) {
  const uint64_t dropped =
      entries_.ErasePrefix(ObjectKeyPrefix(cloud, bucket, object))
          .removed.size();
  if (dropped > 0) {
    invalidation_count_ += dropped;
    invalidations_->Add(dropped);
    env_->counters().Add("blockcache.invalidations", dropped);
  }
  return dropped;
}

void BlockCache::FoldTxn(CacheTxn* txn) {
  if (txn->ops_.empty()) return;
  // Nested fan-out: with another txn installed (a prefetch unit folding into
  // its stream task's txn) the ops join that txn, so the launcher still folds
  // everything in one deterministic pass.
  CacheTxn* current = internal::CurrentTxn();
  const bool nested = current != nullptr && current != txn;
  for (CacheTxn::Op& op : txn->ops_) {
    if (nested) {
      Submit(std::move(op));
    } else {
      ApplyOp(op);
    }
  }
  txn->ops_.clear();
  txn->pending_.clear();
}

void BlockCache::FoldTxns(std::vector<CacheTxn>* txns) {
  for (CacheTxn& txn : *txns) FoldTxn(&txn);
}

void BlockCache::Clear() { entries_.Clear(); }

double BlockCache::FillFraction() const {
  if (!enabled()) return 0.0;
  return static_cast<double>(entries_.totals().bytes) /
         static_cast<double>(capacity_bytes());
}

BlockCacheStats BlockCache::Stats() const {
  BlockCacheStats out;
  out.hits = hit_count_.load(std::memory_order_relaxed);
  out.misses = miss_count_.load(std::memory_order_relaxed);
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
