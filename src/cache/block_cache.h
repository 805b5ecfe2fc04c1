// Columnar block cache (the paper's caching/columnar-IO layer, Sec 3.3/4.2).
//
// BigLake keeps hot table data close to the compute: decoded columnar blocks
// and parsed file footers are cached under keys that include the object
// *generation*, so any rewrite (CAS commit, DML, BLMT coalesce) makes stale
// entries unreachable — generation-based invalidation — while explicit
// `InvalidateObject` calls from the write paths reclaim the capacity early.
//
// Determinism. The cache is shared across queries and touched from pool
// workers, yet hit/miss counts, eviction decisions and the surviving entry
// set must be bit-identical at any worker count (the chaos and determinism
// suites compare counters across 1/2/8 workers). Two rules make that true:
//
//   1. During a parallel region the shared state is *read-only*. Every task
//      installs a `CacheTxn` (mirroring ScopedChargeShard in
//      common/sim_env.h): inserts and LRU touches are
//      buffered in the task's txn and folded back in slot order by the
//      launcher (`FoldTxns`), so mutations happen at a deterministic program
//      point in a deterministic order. Lookups see the frozen shared state
//      plus the task's own pending inserts. Within one query each data file
//      belongs to exactly one stream, so tasks never need each other's
//      pending entries.
//   2. LRU recency is a logical sequence number assigned when an operation
//      is *applied* (always a serial point), never wall or simulated time —
//      so recency order is identical whether the ops were buffered by eight
//      workers or executed inline by one.
//
// Shards, budgets, recency and LRU / TinyLFU eviction live in the shared
// core (cache/lru_shards.h); this class keeps the txn buffering, the footer
// and block payloads and object invalidation. An entry is only ever admitted
// whole (the Read API refuses to admit blocks whose object reads did not all
// observe the expected generation, so a faulted or concurrently-rewritten
// read never poisons the cache).

#ifndef BIGLAKE_CACHE_BLOCK_CACHE_H_
#define BIGLAKE_CACHE_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/admission.h"
#include "cache/lru_shards.h"
#include "columnar/batch.h"
#include "common/sim_env.h"
#include "format/parquet_lite.h"

namespace biglake {
namespace cache {

struct BlockCacheOptions {
  /// Total decoded bytes the cache may pin. 0 disables the cache entirely
  /// (the default: existing configurations see no behavior change).
  uint64_t capacity_bytes = 0;
  /// Number of independently-locked LRU shards.
  uint32_t shard_count = 8;
  /// Victim selection / admission gating (see cache/admission.h). kLru is
  /// the original recency-only behavior; kTinyLfu evicts by lowest
  /// frequency-per-byte and rejects cold candidates outright.
  AdmissionPolicy admission_policy = AdmissionPolicy::kLru;
};

/// Order-insensitive fingerprint of a projection (the set of columns a block
/// was decoded with); part of the block key so different projections of the
/// same row group never alias. Duplicate names are ignored, so `[a,a,b]`
/// and `[b,a]` fingerprint identically (it is a *set* fingerprint).
uint64_t ProjectionFingerprint(std::span<const std::string> columns);
/// Braced-list convenience: ProjectionFingerprint({"a", "b"}).
inline uint64_t ProjectionFingerprint(
    std::initializer_list<std::string> columns) {
  return ProjectionFingerprint(
      std::span<const std::string>(columns.begin(), columns.size()));
}

/// `<cloud>|<len>:<bucket>|<len>:<object>@` — the invalidation prefix
/// covering every generation/projection of one object. Bucket and object
/// components are length-prefixed so adversarial names containing `|`, `:`
/// or `@` cannot alias another (bucket, object) split, and no object's
/// prefix is a prefix of a different object's keys (the lengths diverge
/// before the content can), keeping InvalidateObject's prefix scan sound.
std::string ObjectKeyPrefix(const char* cloud, const std::string& bucket,
                            const std::string& object);
/// Key of a parsed footer: prefix + generation.
std::string FooterKey(const std::string& object_prefix, uint64_t generation);
/// Key of one decoded row-group block under one projection.
std::string BlockKey(const std::string& object_prefix, uint64_t generation,
                     size_t row_group, uint64_t projection_fp);

/// Point-in-time totals (serial-context reads; used by tests and benches).
struct BlockCacheStats {
  uint64_t entries = 0;
  uint64_t bytes_pinned = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  /// Candidates turned away (or immediately reclaimed) by TinyLFU admission
  /// because a resident entry had a higher frequency-per-byte score.
  uint64_t admission_rejections = 0;
};

class BlockCache;

/// Buffered cache mutations from one parallel task slot. The launcher owns
/// one txn per slot and calls BlockCache::FoldTxns after joining the region.
class CacheTxn {
 public:
  bool empty() const { return ops_.empty(); }

 private:
  friend class BlockCache;
  struct Op {
    std::string key;
    // Insert when either value is set; pure LRU touch otherwise.
    std::shared_ptr<const RecordBatch> block;
    std::shared_ptr<const ParquetFileMeta> footer;
    uint64_t bytes = 0;
    // Frequency-only op: a miss observed under TinyLFU. Applied it bumps
    // the sketch but never touches the LRU or entry maps, so frequency
    // updates fold in the same deterministic slot order as inserts.
    bool access_only = false;
  };
  std::vector<Op> ops_;
  /// key -> index into ops_ of the latest pending *insert*, for
  /// self-visibility of a task's own writes.
  std::map<std::string, size_t> pending_;
};

namespace internal {
/// The calling thread's buffered-mutation sink, or nullptr for direct apply.
CacheTxn*& CurrentTxn();
}  // namespace internal

/// Installs `txn` as this thread's cache-mutation sink for the scope
/// (restoring the previous sink on destruction), exactly like
/// ScopedChargeShard.
class ScopedCacheTxn {
 public:
  explicit ScopedCacheTxn(CacheTxn* txn) : prev_(internal::CurrentTxn()) {
    internal::CurrentTxn() = txn;
  }
  ~ScopedCacheTxn() { internal::CurrentTxn() = prev_; }
  ScopedCacheTxn(const ScopedCacheTxn&) = delete;
  ScopedCacheTxn& operator=(const ScopedCacheTxn&) = delete;

 private:
  CacheTxn* prev_;
};

class BlockCache {
 public:
  explicit BlockCache(SimEnv* env);
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// (Re)configures capacity, evicting down to the new budget. Serial
  /// context only — never inside a parallel region.
  void Configure(const BlockCacheOptions& options);
  bool enabled() const { return capacity_bytes() > 0; }
  uint64_t capacity_bytes() const { return entries_.capacity(); }

  /// Fraction of capacity currently pinned, in [0, 1] (0 when disabled).
  /// Serial context only — the scheduler polls this at admission as its
  /// memory-pressure backpressure signal (docs/SCHEDULING.md).
  double FillFraction() const;

  /// Lookup a decoded block / parsed footer. A hit bumps hit counters and
  /// records an LRU touch (buffered when a CacheTxn is installed); a miss
  /// bumps miss counters and returns nullptr.
  std::shared_ptr<const RecordBatch> GetBlock(const std::string& key);
  std::shared_ptr<const ParquetFileMeta> GetFooter(const std::string& key);
  /// GetBlock without side effects: no counters, no access record, no LRU
  /// touch. `*pending` (optional) is set when the block is an admission
  /// still buffered in the installed CacheTxn.
  std::shared_ptr<const RecordBatch> PeekBlock(const std::string& key,
                                               bool* pending = nullptr);

  /// Admit a fully-read block / footer. Buffered when a CacheTxn is
  /// installed; applied (with eviction) immediately otherwise.
  void PutBlock(const std::string& key,
                std::shared_ptr<const RecordBatch> block);
  void PutFooter(const std::string& key,
                 std::shared_ptr<const ParquetFileMeta> footer,
                 uint64_t approx_bytes);

  /// Drops every generation/projection of `<cloud>|<bucket>|<object>`;
  /// returns the number of entries dropped. Serial context only (wired into
  /// WriteApi commits and BLMT DML/coalesce).
  uint64_t InvalidateObject(const char* cloud, const std::string& bucket,
                            const std::string& object);

  /// Folds one task's buffered ops: appended to the calling thread's own
  /// installed txn when there is one (nested fan-out, e.g. prefetch units
  /// folding into their stream's txn), applied to the shared state
  /// otherwise. The txn is cleared either way.
  void FoldTxn(CacheTxn* txn);
  /// Folds every txn in slot order. Call once after joining a ParallelFor.
  void FoldTxns(std::vector<CacheTxn>* txns);

  /// Drops all entries (capacity is kept). Serial context only.
  void Clear();

  BlockCacheStats Stats() const;

 private:
  struct Cached {  // exactly one is set
    std::shared_ptr<const RecordBatch> block;
    std::shared_ptr<const ParquetFileMeta> footer;
  };
  using Shards = LruShards<Cached>;

  /// Buffers `op` in the installed CacheTxn, or applies it when there is
  /// none.
  void Submit(CacheTxn::Op op);
  void ApplyOp(CacheTxn::Op& op);
  /// Counts the evictions and admission rejections in `removal`.
  void CountEvictions(const Shards::Removal& removal);
  /// Submits one frequency observation (TinyLFU only) / one LRU touch.
  void RecordAccess(const std::string& key);
  void Touch(const std::string& key);
  void CountHit(bool footer);
  void CountMiss(bool footer);

  SimEnv* env_;
  // Instance-local totals (the obs counters are process-global and mix
  // every LakehouseEnv in a test binary). Atomics: hits/misses are counted
  // from pool workers.
  std::atomic<uint64_t> hit_count_{0};
  std::atomic<uint64_t> miss_count_{0};
  uint64_t eviction_count_ = 0;      // mutated at serial apply points only
  uint64_t invalidation_count_ = 0;  // serial
  uint64_t admission_rejection_count_ = 0;  // serial

  obs::Counter* hits_block_;
  obs::Counter* hits_footer_;
  obs::Counter* misses_block_;
  obs::Counter* misses_footer_;
  obs::Counter* evictions_;
  obs::Counter* invalidations_;
  obs::Counter* admission_rejections_;
  Shards entries_;
};

}  // namespace cache
}  // namespace biglake

#endif  // BIGLAKE_CACHE_BLOCK_CACHE_H_
