// lakehouse_rw: BigLake managed tables with multi-table transactions enabled
// and both the block and the result cache on. The op mix is 60% repeated
// dashboard SQL, 20% single-table inserts, 10% MultiTableInsert and 10%
// UPDATE/DELETE on a narrow range of the clustered key (each rewrites one or
// two files), with OptimizeStorage + GarbageCollect every 40 ops.
// Writes invalidate the caches the dashboards rely on, so a read or cache
// gain that costs writers shows here, and every transactional commit re-reads
// and rewrites the whole transaction log.
//
// One pass is one script of kOps ops, generated from the seed, run against a
// freshly built lake (the rebuild is outside the timed op time). Every pass
// therefore sees the same log length at the same op, whatever the speed of
// the system, so commit latency against log history is comparable across
// runs and commits.
//
// Oracle: the client keeps a model of both tables. Every dashboard result
// must equal the model's answer, every DML must report the model's row
// count, and at the end of a pass each table's full contents must equal the
// model.

#include <functional>

#include "common/random.h"
#include "harness.h"

namespace perfbench {
namespace {

// Op types in a fixed cycle (D dashboard, I insert, M multi-table insert,
// X update/delete): the mix and the position of every write are the same for
// every seed, and dashboards run in a fixed rotation, so cache hit rates and
// log lengths do not drift between seeds; the seed picks the rows, the
// update-or-delete choice and the DML key ranges.
constexpr char kCycle[] = "DIDMDDIDXD";
constexpr int kOps = 200;
// Every 40 ops the next op is a d_region dashboard, which re-reads the
// coalesced files: four such cold reads per script are 3% of the dashboards,
// so the p99 tail sits inside that group rather than on its edge.
constexpr int kMaintenanceEvery = 40;
constexpr int64_t kInitialFiles = 20;
constexpr int64_t kRowsPerInitialFile = 1000;
const char* const kRegions[] = {"east", "west", "north", "south"};
const char* const kKinds[] = {"created", "paid", "shipped"};

SchemaPtr OrdersSchema() {
  return MakeSchema({{"order_id", DataType::kInt64, false},
                     {"region", DataType::kString, false},
                     {"qty", DataType::kInt64, false},
                     {"amount", DataType::kDouble, false}});
}

SchemaPtr EventsSchema() {
  return MakeSchema({{"e_order_id", DataType::kInt64, false},
                     {"kind", DataType::kString, false}});
}

struct Order {
  std::string region;
  int64_t qty;
  double amount;
};

struct Dashboard {
  std::string name;
  std::string sql;
};

const std::vector<Dashboard>& Dashboards() {
  static const std::vector<Dashboard> d = {
      {"d_region",
       "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM ds.orders "
       "GROUP BY region"},
      {"d_bigqty",
       "SELECT COUNT(*) AS n, SUM(qty) AS units FROM ds.orders WHERE qty >= 5"},
      {"d_events",
       "SELECT kind, COUNT(*) AS n FROM ds.order_events GROUP BY kind"},
      {"d_recent",
       "SELECT order_id, amount FROM ds.orders WHERE order_id >= " +
           std::to_string(kInitialFiles * kRowsPerInitialFile) +
           " ORDER BY order_id LIMIT 20"},
  };
  return d;
}

class LakehouseRw : public Workload {
 public:
  Status Setup(uint64_t seed) override {
    seed_ = seed;
    return Build();
  }

  void FirstPass(RunStats* stats) override { Script(stats, false, true); }

  Status Reset() override { return Build(); }
  bool RebuildsEachPass() const override { return true; }

  void Pass(RunStats* stats, bool traced) override {
    Script(stats, traced, false);
  }

  // Reads the lake as the last script left it.
  void Probes(LayerReport* out) override {
    auto log = lake_->store->Stat(lake_->Caller(), "lake",
                                  lake_->env.txn()->LogObjectName());
    out->Set("meta.txn.log_bytes",
             log.ok() ? static_cast<double>(log->size) : 0.0, "B", "sim",
             "transaction log object at the end of a script");
    out->Set("core.blmt.live_files", LiveFiles(lake_.get(), "ds.orders"),
             "count", "sim", "live files of ds.orders at the end of a script");
    TableProbes(lake_.get(), "ds.orders", "orders/", true, out);
  }

  LakehouseEnv* env() override { return &lake_->env; }

 private:
  Status Build() {
    engine_.reset();
    lake_.reset();
    lake_ = std::make_unique<Lake>();
    lake_->env.EnableTransactions(lake_->store, "lake");
    orders_.clear();
    events_.clear();
    next_key_ = 0;
    Random rng(seed_);

    auto create = [&](const std::string& name, SchemaPtr schema,
                      std::vector<std::string> clustering) {
      TableDef def;
      def.dataset = "ds";
      def.name = name;
      def.schema = std::move(schema);
      def.connection = "us.lake-conn";
      def.location = lake_->gcp;
      def.bucket = "lake";
      def.prefix = name + "/";
      def.iam.Grant("*", Role::kWriter);
      return lake_->blmt->CreateTable(def, std::move(clustering));
    };
    BL_RETURN_NOT_OK(create("orders", OrdersSchema(), {"order_id"}));
    BL_RETURN_NOT_OK(create("order_events", EventsSchema(), {}));
    for (int64_t f = 0; f < kInitialFiles; ++f) {
      RecordBatch rows = NewOrders(&rng, kRowsPerInitialFile);
      BL_RETURN_NOT_OK(
          lake_->blmt->Insert("user:client", "ds.orders", rows).status());
    }
    for (int f = 0; f < 5; ++f) {
      RecordBatch ev = NewEvents(&rng, f * 1000, 1000);
      BL_RETURN_NOT_OK(
          lake_->blmt->Insert("user:client", "ds.order_events", ev).status());
    }
    EngineOptions opts = BaseEngineOptions();
    opts.enable_block_cache = true;
    opts.enable_result_cache = true;
    engine_ = std::make_unique<QueryEngine>(&lake_->env,
                                            lake_->read_api.get(), opts);
    for (const Dashboard& d : Dashboards()) {
      auto plan = ParseSql(d.sql);
      if (!plan.ok()) return plan.status();
      BL_RETURN_NOT_OK(engine_->Execute("user:client", *plan).status());
    }
    return Status::OK();
  }

  RecordBatch NewOrders(Random* rng, int64_t n) {
    BatchBuilder b(OrdersSchema());
    for (int64_t i = 0; i < n; ++i) {
      int64_t key = next_key_++;
      Order o{kRegions[rng->Uniform(4)],
              1 + static_cast<int64_t>(rng->Uniform(9)), 0.0};
      o.amount = static_cast<double>(o.qty) * (1.0 + rng->NextDouble() * 99.0);
      (void)b.AppendRow({Value::Int64(key), Value::String(o.region),
                         Value::Int64(o.qty), Value::Double(o.amount)});
      orders_[key] = o;
    }
    return b.Finish();
  }

  RecordBatch NewEvents(Random* rng, int64_t first_key, int64_t n) {
    BatchBuilder b(EventsSchema());
    for (int64_t i = 0; i < n; ++i) {
      std::string kind = kKinds[rng->Uniform(3)];
      (void)b.AppendRow({Value::Int64(first_key + i), Value::String(kind)});
      events_.push_back({first_key + i, kind});
    }
    return b.Finish();
  }

  RecordBatch ModelOrders() const {
    BatchBuilder b(OrdersSchema());
    for (const auto& [key, o] : orders_) {
      (void)b.AppendRow({Value::Int64(key), Value::String(o.region),
                         Value::Int64(o.qty), Value::Double(o.amount)});
    }
    return b.Finish();
  }

  RecordBatch ModelEvents() const {
    BatchBuilder b(EventsSchema());
    for (const auto& [key, kind] : events_) {
      (void)b.AppendRow({Value::Int64(key), Value::String(kind)});
    }
    return b.Finish();
  }

  // The model's answer to dashboard `i`.
  RecordBatch Expected(size_t i) const {
    const std::string& name = Dashboards()[i].name;
    if (name == "d_region") {
      std::map<std::string, std::pair<int64_t, double>> g;
      for (const auto& [key, o] : orders_) {
        ++g[o.region].first;
        g[o.region].second += o.amount;
      }
      BatchBuilder b(MakeSchema({{"region", DataType::kString, false},
                                 {"n", DataType::kInt64, false},
                                 {"total", DataType::kDouble, false}}));
      for (const auto& [r, v] : g) {
        (void)b.AppendRow(
            {Value::String(r), Value::Int64(v.first), Value::Double(v.second)});
      }
      return b.Finish();
    }
    if (name == "d_bigqty") {
      int64_t n = 0, units = 0;
      for (const auto& [key, o] : orders_) {
        if (o.qty >= 5) {
          ++n;
          units += o.qty;
        }
      }
      BatchBuilder b(MakeSchema({{"n", DataType::kInt64, false},
                                 {"units", DataType::kInt64, false}}));
      (void)b.AppendRow({Value::Int64(n), Value::Int64(units)});
      return b.Finish();
    }
    if (name == "d_events") {
      std::map<std::string, int64_t> g;
      for (const auto& [key, kind] : events_) ++g[kind];
      BatchBuilder b(MakeSchema({{"kind", DataType::kString, false},
                                 {"n", DataType::kInt64, false}}));
      for (const auto& [k, n] : g) {
        (void)b.AppendRow({Value::String(k), Value::Int64(n)});
      }
      return b.Finish();
    }
    BatchBuilder b(MakeSchema({{"order_id", DataType::kInt64, false},
                               {"amount", DataType::kDouble, false}}));
    int taken = 0;
    for (auto it = orders_.lower_bound(kInitialFiles * kRowsPerInitialFile);
         it != orders_.end() && taken < 20; ++it, ++taken) {
      (void)b.AppendRow(
          {Value::Int64(it->first), Value::Double(it->second.amount)});
    }
    return b.Finish();
  }

  void Commit(const char* what, const std::string& layer, RunStats* stats,
              const std::function<Result<uint64_t>()>& fn,
              int64_t expect_rows) {
    ++stats->attempted;
    double ms = 0, cpu = 0;
    auto r = TimeOp(&ms, &cpu, fn);
    stats->RecordCommit(ms, cpu);
    stats->layer_ms[layer].push_back(ms);
    if (layer == "core.blmt.dml_ms") {
      stats->layer_ms["meta.txn.commit_ms"].push_back(ms);
    }
    if (!r.ok()) {
      stats->Fail(std::string(what) + ": " + r.status().ToString());
    } else if (expect_rows >= 0 && static_cast<int64_t>(*r) != expect_rows) {
      stats->Fail(std::string(what) + ": " + std::to_string(*r) +
                  " rows, model says " + std::to_string(expect_rows));
    }
  }

  void Script(RunStats* stats, bool traced, bool first) {
    Random rng(seed_ ^ 0x5eedULL);
    BlmtService* blmt = lake_->blmt.get();
    const auto& dash = Dashboards();
    size_t next_dashboard = 0;
    for (int op = 0; op < kOps; ++op) {
      const char type = kCycle[op % (sizeof(kCycle) - 1)];
      if (type == 'D') {
        size_t i = next_dashboard;
        next_dashboard = (next_dashboard + 1) % dash.size();
        QueryResult got = RunQuery(engine_.get(), "user:client", dash[i].name,
                                   dash[i].sql, nullptr, stats, traced);
        std::string diff = CompareRows(got.batch, Expected(i));
        if (!diff.empty()) stats->Fail(dash[i].name + " vs model: " + diff);
        if (first) {
          stats->sim_read_us += static_cast<double>(got.stats.wall_micros);
          ++stats->sim_read_ops;
          stats->layer_counts["engine.files_scanned"] +=
              got.stats.files_scanned;
          stats->layer_counts["engine.files_pruned"] += got.stats.files_pruned;
        }
      } else if (type == 'I') {
        RecordBatch rows = NewOrders(&rng, 50);
        stats->layer_counts["objstore.user_bytes"] += rows.MemoryBytes();
        Commit("insert", "core.blmt.insert_ms", stats,
               [&] { return blmt->Insert("user:client", "ds.orders", rows); },
               -1);
      } else if (type == 'M') {
        int64_t first_key = next_key_;
        RecordBatch rows = NewOrders(&rng, 20);
        RecordBatch ev = NewEvents(&rng, first_key, 20);
        stats->layer_counts["objstore.user_bytes"] +=
            rows.MemoryBytes() + ev.MemoryBytes();
        Commit("multi-table insert", "meta.txn.commit_ms", stats,
               [&] {
                 return blmt->MultiTableInsert(
                     "user:client",
                     {{"ds.orders", rows}, {"ds.order_events", ev}});
               },
               -1);
      } else {
        // DML targets the initially loaded key range, whose files all hold
        // kRowsPerInitialFile rows, so every seed rewrites files of one size.
        int64_t lo = static_cast<int64_t>(rng.Uniform(
            static_cast<uint64_t>(kInitialFiles * kRowsPerInitialFile - 10)));
        ExprPtr range = Expr::And(
            Expr::Ge(Expr::Col("order_id"), Expr::Lit(Value::Int64(lo))),
            Expr::Lt(Expr::Col("order_id"), Expr::Lit(Value::Int64(lo + 10))));
        auto first_it = orders_.lower_bound(lo);
        auto last_it = orders_.lower_bound(lo + 10);
        int64_t affected = std::distance(first_it, last_it);
        if (rng.Uniform(2) == 0) {
          int64_t qty = 1 + static_cast<int64_t>(rng.Uniform(9));
          for (auto it = first_it; it != last_it; ++it) it->second.qty = qty;
          Commit("update", "core.blmt.dml_ms", stats,
                 [&] {
                   return blmt->Update("user:client", "ds.orders", range,
                                       {{"qty", Value::Int64(qty)}});
                 },
                 affected);
        } else {
          orders_.erase(first_it, last_it);
          Commit("delete", "core.blmt.dml_ms", stats,
                 [&] {
                   return blmt->Delete("user:client", "ds.orders", range);
                 },
                 affected);
        }
      }
      if ((op + 1) % kMaintenanceEvery == 0) {
        ++stats->attempted;
        double ms = 0, cpu = 0;
        Status st = TimeOp(&ms, &cpu, [&] {
          auto opt = blmt->OptimizeStorage("ds.orders");
          if (!opt.ok()) return opt.status();
          return blmt->GarbageCollect("ds.orders").status();
        });
        stats->RecordOther(ms, cpu);
        if (!st.ok()) stats->Fail("optimize + gc: " + st.ToString());
      }
    }
    // The end-of-script oracle: full table contents equal the model.
    ++stats->attempted;
    auto orders = blmt->ReadAll("ds.orders");
    auto events = blmt->ReadAll("ds.order_events");
    if (!orders.ok() || !events.ok()) {
      stats->Fail("final read failed");
    } else if (FingerprintOf(*orders) != FingerprintOf(ModelOrders()) ||
               FingerprintOf(*events) != FingerprintOf(ModelEvents())) {
      stats->Fail("final table contents differ from the client model");
    }
  }

  uint64_t seed_ = 0;
  std::unique_ptr<Lake> lake_;
  std::unique_ptr<QueryEngine> engine_;
  std::map<int64_t, Order> orders_;
  std::vector<std::pair<int64_t, std::string>> events_;
  int64_t next_key_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeLakehouseRw() {
  return std::make_unique<LakehouseRw>();
}

}  // namespace perfbench
