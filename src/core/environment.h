// LakehouseEnv: the wired-together simulation of the BigQuery estate.
//
// One SimEnv (clock + counters), one control-plane Catalog and Big Metadata
// store (the paper keeps both on GCP even for Omni, Sec 5.1/5.4), and one
// simulated object store per (cloud, region) the deployment spans. Tests,
// examples and benches build everything on top of this.

#ifndef BIGLAKE_CORE_ENVIRONMENT_H_
#define BIGLAKE_CORE_ENVIRONMENT_H_

#include <map>
#include <memory>
#include <string>

#include "cache/block_cache.h"
#include "cache/result_cache.h"
#include "catalog/catalog.h"
#include "meta/bigmeta.h"
#include "meta/metadata_cache.h"
#include "meta/txn.h"
#include "objstore/objstore.h"
#include "security/security.h"

namespace biglake {

class LakehouseEnv {
 public:
  LakehouseEnv()
      : meta_(&env_),
        cache_mgr_(&env_, &meta_),
        block_cache_(&env_),
        result_cache_(&env_) {}

  SimEnv& sim() { return env_; }
  Catalog& catalog() { return catalog_; }
  BigMetadataStore& meta() { return meta_; }
  MetadataCacheManager& cache_manager() { return cache_mgr_; }
  SessionTokenService& token_service() { return tokens_; }

  /// The environment-wide columnar block cache (src/cache/). Disabled until
  /// ConfigureBlockCache grants it capacity; every consumer (the Read API,
  /// and through it the engine and any external caller that sets
  /// ReadSessionOptions::use_block_cache) shares the same instance, so an
  /// external engine's scan warms the next BigQuery scan and vice versa.
  cache::BlockCache& block_cache() { return block_cache_; }
  void ConfigureBlockCache(const cache::BlockCacheOptions& options) {
    block_cache_.Configure(options);
  }

  /// The environment-wide query result cache (src/cache/result_cache.h).
  /// Disabled until ConfigureResultCache grants it capacity; shared by every
  /// engine on this env, and invalidated by the Write API and BLMT commits.
  cache::ResultCache& result_cache() { return result_cache_; }
  void ConfigureResultCache(const cache::ResultCacheOptions& options) {
    result_cache_.Configure(options);
  }

  /// Registers an object store for a (cloud, region); returns it.
  ObjectStore* AddStore(const CloudLocation& location,
                        ObjectStoreOptions options = {}) {
    options.location = location;
    auto store = std::make_unique<ObjectStore>(&env_, options);
    ObjectStore* ptr = store.get();
    stores_[location.ToString()] = std::move(store);
    return ptr;
  }

  /// The store serving a location, or nullptr.
  ObjectStore* store(const CloudLocation& location) const {
    auto it = stores_.find(location.ToString());
    return it == stores_.end() ? nullptr : it->second.get();
  }

  Result<ObjectStore*> FindStore(const CloudLocation& location) const {
    ObjectStore* s = store(location);
    if (s == nullptr) {
      return Status::NotFound("no object store registered for " +
                              location.ToString());
    }
    return s;
  }

  /// Opts this environment into multi-table transactions (meta/txn.h): the
  /// coordinator keeps its log + intent manifests under `prefix` in `bucket`
  /// on `store`, and its invalidation hook drops result-cache entries and
  /// block-cache blocks for every table/file a committed record touches — in
  /// the same atomic step as the metadata apply, so no cached plan can mix
  /// per-table generations across a commit. BlmtService reroutes multi-table
  /// DML through the coordinator once this is configured.
  meta::TxnCoordinator* EnableTransactions(
      ObjectStore* store, const std::string& bucket,
      meta::TxnCoordinatorOptions options = {}) {
    options.bucket = bucket;
    txn_ = std::make_unique<meta::TxnCoordinator>(&env_, &meta_, store,
                                                  std::move(options));
    txn_->set_invalidation_hook([this](const meta::TxnLogRecord& rec) {
      for (const meta::TxnTableOps& ops : rec.tables) {
        result_cache_.InvalidateTable(ops.table_id);
        if (ops.removes.empty()) continue;
        auto table = catalog_.GetTable(ops.table_id);
        if (!table.ok()) continue;  // replayed into an env without catalog
        const char* cloud = CloudProviderName((*table)->location.provider);
        for (const std::string& path : ops.removes) {
          // Staged remove paths are full object names (they include the
          // table prefix), matching BLMT's own invalidation calls.
          block_cache_.InvalidateObject(cloud, (*table)->bucket, path);
        }
      }
    });
    return txn_.get();
  }

  /// The transaction coordinator, or nullptr when not enabled.
  meta::TxnCoordinator* txn() { return txn_.get(); }

 private:
  SimEnv env_;
  Catalog catalog_;
  BigMetadataStore meta_;
  MetadataCacheManager cache_mgr_;
  SessionTokenService tokens_{0x42ab5ec7e7fULL};
  cache::BlockCache block_cache_;
  cache::ResultCache result_cache_;
  std::map<std::string, std::unique_ptr<ObjectStore>> stores_;
  std::unique_ptr<meta::TxnCoordinator> txn_;
};

}  // namespace biglake

#endif  // BIGLAKE_CORE_ENVIRONMENT_H_
