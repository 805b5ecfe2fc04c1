// The one byte-budgeted sharded cache core under the block cache and the
// result cache.
//
// Keys hash to a shard; each shard owns capacity/shard_count bytes, its own
// lock, its entries in key order and a stamp -> key recency index. Recency
// is a logical sequence number assigned when an operation is applied, never
// wall or simulated time. On overflow `kLru` evicts the least-recently-used
// entry; `kTinyLfu` evicts the entry with the lowest frequency-per-byte
// (cache/admission.h), and evicting the just-inserted candidate counts as an
// admission rejection rather than an eviction.
//
// The core keeps the bytes-pinned gauge it is handed and nothing else of the
// caller's accounting: every mutation returns a `Removal` saying what it
// dropped, and the owning cache bumps its own sim counters, registry series
// and Stats() fields (and, for the result cache, its table index) from it.
//
// Threading: lookups may run concurrently (each takes its shard's lock).
// Mutations — Touch, RecordAccess, Insert, the erases, Configure, Clear —
// happen at serial points only, as both caches guarantee, because the
// recency clock and the frequency sketch are not locked.

#ifndef BIGLAKE_CACHE_LRU_SHARDS_H_
#define BIGLAKE_CACHE_LRU_SHARDS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/admission.h"
#include "obs/metrics.h"

namespace biglake {
namespace cache {

template <typename Value>
class LruShards {
 public:
  /// What one mutation dropped.
  struct Removal {
    bool inserted = false;    // Insert only: the key was not resident
    uint64_t evictions = 0;   // overflow victims
    uint64_t rejections = 0;  // TinyLFU: the inserted candidate itself lost
    /// Every dropped entry (evicted, rejected, erased or cleared), in
    /// removal order.
    std::vector<std::pair<std::string, Value>> removed;
  };
  struct Totals {
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  explicit LruShards(obs::Gauge* bytes_pinned) : bytes_pinned_(bytes_pinned) {
    Reshard(8);
  }
  ~LruShards() {
    // Return this instance's pinned bytes so the process-global gauge stays
    // meaningful across env lifetimes in one test binary.
    bytes_pinned_->Add(-static_cast<int64_t>(totals().bytes));
  }
  LruShards(const LruShards&) = delete;
  LruShards& operator=(const LruShards&) = delete;

  /// Sets the budget and policy, evicting (least recent first) down to the
  /// new per-shard budget. A new shard count drops every entry first; a
  /// TinyLFU policy starts a fresh sketch sized from the capacity (one slot
  /// per 64 KiB, min 1024).
  Removal Configure(uint64_t capacity, uint32_t shard_count,
                    AdmissionPolicy policy) {
    shard_count = std::max<uint32_t>(1, shard_count);
    Removal out;
    if (shard_count != shards_.size()) {
      out = Clear();
      Reshard(shard_count);
    }
    capacity_ = capacity;
    per_shard_capacity_ = capacity_ / shards_.size();
    policy_ = policy;
    if (policy_ == AdmissionPolicy::kTinyLfu) {
      sketch_.Reset(capacity_ / (64ull << 10));
    }
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      EvictLru(*shard, &out);
    }
    return out;
  }
  uint64_t capacity() const { return capacity_; }
  AdmissionPolicy policy() const { return policy_; }

  /// The resident value of `key`, or a default-constructed Value. No
  /// recency or frequency side effects.
  Value Find(const std::string& key) const {
    const Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    return it == shard.entries.end() ? Value() : it->second.value;
  }

  /// Records one access of `key` in the TinyLFU sketch (no-op under kLru).
  void RecordAccess(const std::string& key) {
    if (policy_ == AdmissionPolicy::kTinyLfu) sketch_.Increment(KeyHash(key));
  }

  /// RecordAccess plus a recency refresh when `key` is resident.
  void Touch(const std::string& key) {
    RecordAccess(key);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) Restamp(shard, it);
  }

  /// Admits `key` as most recent, then evicts down to its shard's budget. A
  /// resident key keeps its value and only has its recency refreshed.
  Removal Insert(const std::string& key, Value value, uint64_t bytes) {
    Removal out;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.entries.try_emplace(key);
    if (inserted) {
      it->second.value = std::move(value);
      it->second.bytes = bytes;
      shard.bytes_used += bytes;
      bytes_pinned_->Add(static_cast<int64_t>(bytes));
      out.inserted = true;
    }
    Restamp(shard, it);
    if (!inserted) return out;
    if (policy_ == AdmissionPolicy::kTinyLfu) {
      EvictByFrequency(shard, key, &out);
    } else {
      EvictLru(shard, &out);
    }
    return out;
  }

  /// Drops every entry whose key starts with `prefix`.
  Removal ErasePrefix(const std::string& prefix) {
    Removal out;
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.lower_bound(prefix);
      while (it != shard.entries.end() &&
             it->first.compare(0, prefix.size(), prefix) == 0) {
        it = Remove(shard, it, &out);
      }
    }
    return out;
  }

  /// Drops each of `keys` that is resident.
  template <typename Keys>
  Removal EraseKeys(const Keys& keys) {
    Removal out;
    for (const std::string& key : keys) {
      Shard& shard = ShardFor(key);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) Remove(shard, it, &out);
    }
    return out;
  }

  /// Drops every entry (capacity and policy are kept).
  Removal Clear() {
    Removal out;
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.entries.begin(); it != shard.entries.end();) {
        it = Remove(shard, it, &out);
      }
    }
    return out;
  }

  Totals totals() const {
    Totals out;
    for (const auto& shard_ptr : shards_) {
      std::lock_guard<std::mutex> lock(shard_ptr->mu);
      out.entries += shard_ptr->entries.size();
      out.bytes += shard_ptr->bytes_used;
    }
    return out;
  }

 private:
  struct Entry {
    Value value;
    uint64_t bytes = 0;
    uint64_t stamp = 0;  // 0 until first stamped; live stamps start at 1
  };
  using EntryMap = std::map<std::string, Entry>;
  struct Shard {
    mutable std::mutex mu;
    EntryMap entries;
    std::map<uint64_t, std::string> lru;  // stamp -> key
    uint64_t bytes_used = 0;
  };

  void Reshard(uint32_t shard_count) {
    shards_.resize(shard_count);
    for (auto& s : shards_) {
      if (s == nullptr) s = std::make_unique<Shard>();
    }
  }

  Shard& ShardFor(const std::string& key) {
    return *shards_[KeyHash(key) % shards_.size()];
  }
  const Shard& ShardFor(const std::string& key) const {
    return *shards_[KeyHash(key) % shards_.size()];
  }

  /// Makes `it` the shard's most recent entry. Caller holds the shard lock.
  void Restamp(Shard& shard, typename EntryMap::iterator it) {
    shard.lru.erase(it->second.stamp);
    it->second.stamp = ++seq_;
    shard.lru.emplace(it->second.stamp, it->first);
  }

  /// Unlinks `it`, appends it to `out->removed` and returns the next entry.
  /// Caller holds the shard lock.
  typename EntryMap::iterator Remove(Shard& shard,
                                     typename EntryMap::iterator it,
                                     Removal* out) {
    auto next = std::next(it);
    shard.bytes_used -= it->second.bytes;
    bytes_pinned_->Add(-static_cast<int64_t>(it->second.bytes));
    shard.lru.erase(it->second.stamp);
    auto node = shard.entries.extract(it);
    out->removed.emplace_back(std::move(node.key()),
                              std::move(node.mapped().value));
    return next;
  }

  /// Evicts least-recently-used entries while the shard is over budget.
  void EvictLru(Shard& shard, Removal* out) {
    while (shard.bytes_used > per_shard_capacity_ && !shard.lru.empty()) {
      Remove(shard, shard.entries.find(shard.lru.begin()->second), out);
      ++out->evictions;
    }
  }

  /// TinyLFU overflow handling: repeatedly evicts the entry with the lowest
  /// frequency-per-byte, ties broken oldest-stamp-first. Evicting the
  /// just-inserted `candidate` itself counts as an admission rejection.
  void EvictByFrequency(Shard& shard, const std::string& candidate,
                        Removal* out) {
    while (shard.bytes_used > per_shard_capacity_ && !shard.entries.empty()) {
      // Compare freq_a/bytes_a < freq_b/bytes_b by cross-multiplication
      // (freq <= 15, so no overflow and no floating point). Key order makes
      // the scan deterministic.
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
      ++(victim->first == candidate ? out->rejections : out->evictions);
      Remove(shard, victim, out);
    }
  }

  obs::Gauge* bytes_pinned_;
  uint64_t capacity_ = 0;
  uint64_t per_shard_capacity_ = 0;
  uint64_t seq_ = 0;  // logical recency clock
  AdmissionPolicy policy_ = AdmissionPolicy::kLru;
  FrequencySketch sketch_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cache
}  // namespace biglake

#endif  // BIGLAKE_CACHE_LRU_SHARDS_H_
