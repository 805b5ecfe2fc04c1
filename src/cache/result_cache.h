// Query result cache: repeated dashboard queries skip the engine entirely.
//
// The top layer of BigLake's caching stack (metadata cache -> columnar block
// cache -> result cache). Entries hold the fully-materialized RecordBatch of
// a query, keyed by a caller-composed string binding together
//
//   plan fingerprint x per-table commit generations x engine knobs
//
// (see engine/plan_fingerprint.h for the canonical composition). Because
// every referenced table's Big Metadata commit generation is *in the key*,
// any CAS commit / DML / BLMT optimize moves dependent keys and stale
// entries become unreachable by construction — correctness never depends on
// eager invalidation. `InvalidateTable` (wired next to the block cache's
// `InvalidateObject` calls in the Write API and BLMT) additionally reclaims
// the dead bytes the moment a commit lands; a table-id -> keys index, kept
// in step with every entry the core reports removed, makes the sweep exact.
//
// Determinism. Probe (Get) and insert (Put) happen only at the serial
// entry/exit of QueryEngine::Execute — never inside a parallel region — so
// unlike the block cache no transaction buffering is needed. All simulated
// costs charged here (probe latency, per-row hit replay) are independent of
// the engine's worker count, and LRU recency is a logical sequence number,
// so hit/miss counters, eviction decisions and the virtual clock stay
// bit-identical across 1/2/8 workers.
//
// Shards, budgets, recency and eviction are the block cache's own core
// (cache/lru_shards.h): plain sharded LRU, or TinyLFU frequency-per-byte
// victim selection with admission gating (cache/admission.h).

#ifndef BIGLAKE_CACHE_RESULT_CACHE_H_
#define BIGLAKE_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cache/admission.h"
#include "cache/lru_shards.h"
#include "columnar/batch.h"
#include "common/sim_env.h"

namespace biglake {
namespace cache {

struct ResultCacheOptions {
  /// Total result bytes the cache may pin. 0 disables the cache entirely.
  uint64_t capacity_bytes = 0;
  /// Number of shards (key-hash partitioned, like the block cache).
  uint32_t shard_count = 8;
  /// Victim selection / admission gating (see cache/admission.h).
  AdmissionPolicy admission_policy = AdmissionPolicy::kLru;
  /// Simulated cost of one probe (charged on every Get, hit or miss).
  SimMicros probe_latency = 25;
  /// Simulated cost of serving a hit: base + per-row replay of the cached
  /// batch into the caller's result. Worker-count independent by design.
  SimMicros hit_base_latency = 50;
  double hit_micros_per_row = 0.05;
};

/// Point-in-time totals (serial-context reads; tests and benches).
struct ResultCacheStats {
  uint64_t entries = 0;
  uint64_t bytes_pinned = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t admission_rejections = 0;
};

class ResultCache {
 public:
  explicit ResultCache(SimEnv* env);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// (Re)configures capacity/policy, evicting down to the new budget.
  /// Serial context only.
  void Configure(const ResultCacheOptions& options);
  bool enabled() const { return options_.capacity_bytes > 0; }
  const ResultCacheOptions& options() const { return options_; }

  /// Probes for a cached result. Charges `probe_latency` always and the
  /// deterministic hit-replay cost on a hit; bumps hit/miss counters.
  std::shared_ptr<const RecordBatch> Get(const std::string& key);

  /// Admits a result depending on `tables` (the sorted table ids baked into
  /// the key). Insertion itself is uncharged simulated time.
  void Put(const std::string& key, const std::vector<std::string>& tables,
           std::shared_ptr<const RecordBatch> batch);

  /// Drops every entry depending on `table_id`; returns how many. Wired
  /// next to BlockCache::InvalidateObject in the write paths; reclaims
  /// bytes early (generation-in-key already guarantees correctness).
  uint64_t InvalidateTable(const std::string& table_id);

  /// Drops all entries (capacity is kept). Serial context only.
  void Clear();

  ResultCacheStats Stats() const;

 private:
  struct Cached {
    std::shared_ptr<const RecordBatch> batch;
    std::vector<std::string> tables;  // for the table index
  };
  using Shards = LruShards<Cached>;

  /// Counts the evictions and rejections in `removal` and drops its
  /// entries from the table index; returns how many entries it removed.
  uint64_t Absorb(const Shards::Removal& removal);

  SimEnv* env_;
  ResultCacheOptions options_;
  double serve_carry_ = 0.0;  // fractional per-row serve micros carried over
  std::atomic<uint64_t> hit_count_{0};
  std::atomic<uint64_t> miss_count_{0};
  uint64_t insert_count_ = 0;
  uint64_t eviction_count_ = 0;
  uint64_t invalidation_count_ = 0;
  uint64_t admission_rejection_count_ = 0;

  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* inserts_;
  obs::Counter* evictions_;
  obs::Counter* invalidations_;
  obs::Counter* admission_rejections_;
  Shards entries_;
  /// Exact invalidation index: table id -> keys of dependent entries.
  std::mutex index_mu_;
  std::map<std::string, std::set<std::string>> by_table_;
};

}  // namespace cache
}  // namespace biglake

#endif  // BIGLAKE_CACHE_RESULT_CACHE_H_
