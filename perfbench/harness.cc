#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "format/parquet_lite.h"
#include "obs/metrics.h"

namespace perfbench {

// ---- Process probes and statistics -----------------------------------------

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double CalibrationMs() {
  constexpr size_t kTableSlots = size_t{1} << 17;  // 1 MiB of uint64_t
  constexpr size_t kKeys = size_t{1} << 14;
  static std::vector<uint64_t> table(kTableSlots);
  static std::vector<double> keys = [] {
    std::vector<double> k(kKeys);
    uint64_t x = 7;
    for (double& v : k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<double>(x >> 11);
    }
    return k;
  }();
  static std::vector<double> work(kKeys);
  static volatile uint64_t sink = 0;
  auto kernel = [] {
    for (uint64_t i = 0; i < 300000; ++i) {
      uint64_t h = (i * 0x9E3779B97F4A7C15ull) >> 47;
      table[h] += i ^ table[(h * 31) & (kTableSlots - 1)];
    }
    std::copy(keys.begin(), keys.end(), work.begin());
    std::sort(work.begin(), work.end());
    char buf[64];
    size_t n = 0;
    for (size_t i = 0; i < 3000; ++i) {
      n += static_cast<size_t>(
          std::snprintf(buf, sizeof(buf), "%.6g", work[i * 5]));
    }
    sink = sink + table[n & (kTableSlots - 1)] + n;
  };
  kernel();  // warm the kernel's own buffers
  auto t0 = Clock::now();
  kernel();
  return MsSince(t0);
}

HostSpeed HostSpeed::Measure() {
  HostSpeed h;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &mask)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
      h.cpu_ms_.emplace_back(cpu, CalibrationMs());
    }
    sched_setaffinity(0, sizeof(mask), &mask);
  }
  if (h.cpu_ms_.empty()) h.cpu_ms_.emplace_back(-1, CalibrationMs());
  h.cpu_ = sched_getcpu();
  h.thread_cpu_ms_ = ThreadCpuMs();
  h.process_cpu_ms_ = ProcessCpuMs();
  return h;
}

double HostSpeed::MeanMs() const {
  double sum = 0;
  for (const auto& [cpu, ms] : cpu_ms_) sum += ms;
  return sum / static_cast<double>(cpu_ms_.size());
}

double HostSpeed::Speed() const {
  double own_ms = MeanMs();
  for (const auto& [cpu, ms] : cpu_ms_) {
    if (cpu == cpu_) own_ms = ms;
  }
  const double thread_ms = ThreadCpuMs() - thread_cpu_ms_;
  const double process_ms = ProcessCpuMs() - process_cpu_ms_;
  const double share =
      process_ms > 0 ? std::clamp(thread_ms / process_ms, 0.0, 1.0) : 1.0;
  return kReferenceCalibrationMs /
         (share * own_ms + (1.0 - share) * MeanMs());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

Tail TailOf(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  t.percentile = 50.0;
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0) {
      t.percentile = p;
      break;
    }
  }
  t.value = Quantile(v, t.percentile / 100.0);
  return t;
}

// ---- Fingerprints and oracles ----------------------------------------------

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t HashBytes(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix(h);
}

constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;

uint64_t HashDouble(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix(bits ^ 0x5bd1e995ULL);
}

// Folds one column's cell hashes into the per-row accumulators.
void FoldColumn(const Column& col, size_t index, std::vector<uint64_t>* rows) {
  const size_t n = col.length();
  auto fold = [&](size_t r, uint64_t cell) {
    if (col.has_validity() && col.IsNull(r)) cell = kNullHash;
    (*rows)[r] = Mix((*rows)[r] + cell + index);
  };
  switch (col.encoding()) {
    case Encoding::kDictionary: {
      const StringBuffer& dict = col.dictionary();
      std::vector<uint64_t> dh(dict.size());
      for (size_t i = 0; i < dict.size(); ++i) dh[i] = HashBytes(dict[i]);
      const Buffer<uint32_t>& idx = col.dict_indices();
      for (size_t r = 0; r < n; ++r) fold(r, dh[idx[r]]);
      return;
    }
    case Encoding::kRunLength: {
      const Buffer<int64_t>& vals = col.run_values();
      const Buffer<uint32_t>& lens = col.run_lengths();
      size_t r = 0;
      for (size_t run = 0; run < lens.size() && r < n; ++run) {
        uint64_t cell = Mix(static_cast<uint64_t>(vals[run]));
        for (uint32_t k = 0; k < lens[run] && r < n; ++k) fold(r++, cell);
      }
      return;
    }
    case Encoding::kPlain:
      break;
  }
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      const Buffer<int64_t>& v = col.int64_data();
      for (size_t r = 0; r < n; ++r) fold(r, Mix(static_cast<uint64_t>(v[r])));
      return;
    }
    case DataType::kDouble: {
      const Buffer<double>& v = col.double_data();
      for (size_t r = 0; r < n; ++r) fold(r, HashDouble(v[r]));
      return;
    }
    case DataType::kBool: {
      const Buffer<uint8_t>& v = col.bool_data();
      for (size_t r = 0; r < n; ++r) fold(r, Mix(v[r] != 0 ? 11 : 7));
      return;
    }
    case DataType::kString:
    case DataType::kBytes: {
      const StringBuffer& v = col.string_data();
      for (size_t r = 0; r < n; ++r) fold(r, HashBytes(v[r]));
      return;
    }
  }
}

using Row = std::vector<Value>;

std::vector<Row> SortedRows(const RecordBatch& b) {
  std::vector<Row> rows(b.num_rows(), Row(b.num_columns()));
  for (size_t c = 0; c < b.num_columns(); ++c) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      rows[r][c] = b.column(c).GetValue(r);
    }
  }
  // Doubles sort by value; aggregates that differ only in the last bits
  // still land next to each other because group keys lead each row.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
}

bool CloseEnough(const Value& a, const Value& b, double rel_tol) {
  if (a.is_double() || b.is_double()) {
    if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
    double x = a.AsDouble(), y = b.AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= rel_tol * scale;
  }
  return a.Compare(b) == 0;
}

}  // namespace

Fingerprint FingerprintOf(const RecordBatch& batch) {
  Fingerprint fp;
  fp.rows = batch.num_rows();
  std::vector<uint64_t> rows(batch.num_rows(), 0x2545f4914f6cdd1dULL);
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    FoldColumn(batch.column(c), c, &rows);
  }
  for (uint64_t h : rows) fp.hash += Mix(h);
  return fp;
}

std::string CompareRows(const RecordBatch& got, const RecordBatch& want,
                        double rel_tol) {
  if (got.num_rows() != want.num_rows()) {
    return "row count " + std::to_string(got.num_rows()) + " != expected " +
           std::to_string(want.num_rows());
  }
  if (got.num_columns() != want.num_columns()) {
    return "column count " + std::to_string(got.num_columns()) +
           " != expected " + std::to_string(want.num_columns());
  }
  std::vector<Row> a = SortedRows(got);
  std::vector<Row> b = SortedRows(want);
  for (size_t r = 0; r < a.size(); ++r) {
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!CloseEnough(a[r][c], b[r][c], rel_tol)) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": " + a[r][c].ToString() + " != expected " +
               b[r][c].ToString();
      }
    }
  }
  return "";
}

// ---- Fixture ----------------------------------------------------------------

Lake::Lake() {
  store = env.AddStore(gcp);
  (void)store->CreateBucket("lake");
  (void)env.catalog().CreateDataset("ds");
  Connection conn;
  conn.name = "us.lake-conn";
  conn.service_account.principal = "sa:lake-conn";
  (void)env.catalog().CreateConnection(conn);
  biglake = std::make_unique<BigLakeTableService>(&env);
  blmt = std::make_unique<BlmtService>(&env);
  read_api = std::make_unique<StorageReadApi>(&env);
}

Status Lake::PutParquet(const std::string& name, const RecordBatch& batch) {
  BL_ASSIGN_OR_RETURN(std::string bytes, WriteParquetFile(batch));
  PutOptions po;
  po.content_type = "application/x-parquet-lite";
  return store->Put(Caller(), "lake", name, std::move(bytes), po).status();
}

uint32_t Workers() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

EngineOptions BaseEngineOptions() {
  EngineOptions opts;
  opts.num_workers = Workers();
  opts.readahead_depth = 0;
  return opts;
}

// ---- Counter snapshots ------------------------------------------------------

CounterSnapshot CounterSnapshot::Take(LakehouseEnv* env) {
  CounterSnapshot s;
  s.sim = env->sim().counters().all();
  std::istringstream in(obs::MetricsRegistry::Default().DumpMetrics());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    s.registry[line.substr(0, sp)] =
        std::strtod(line.c_str() + sp + 1, nullptr);
  }
  s.buffers = BufferPool::Default().snapshot();
  s.block = env->block_cache().Stats();
  s.result = env->result_cache().Stats();
  return s;
}

void CounterDelta::Add(const CounterSnapshot& before,
                       const CounterSnapshot& after) {
  for (const auto& [key, value] : after.sim) {
    auto it = before.sim.find(key);
    sim[key] += static_cast<double>(
        value - (it == before.sim.end() ? 0 : it->second));
  }
  for (const auto& [key, value] : after.registry) {
    auto it = before.registry.find(key);
    registry[key] += value - (it == before.registry.end() ? 0.0 : it->second);
  }
  bytes_copied += static_cast<double>(after.buffers.bytes_copied -
                                      before.buffers.bytes_copied);
  block_hits += static_cast<double>(after.block.hits - before.block.hits);
  block_misses += static_cast<double>(after.block.misses - before.block.misses);
  block_evictions +=
      static_cast<double>(after.block.evictions - before.block.evictions);
  result_hits += static_cast<double>(after.result.hits - before.result.hits);
  result_misses +=
      static_cast<double>(after.result.misses - before.result.misses);
  result_invalidations += static_cast<double>(after.result.invalidations -
                                              before.result.invalidations);
  last = after;
}

double CounterDelta::Sim(const std::string& prefix,
                         const std::string& suffix) const {
  double total = 0;
  for (const auto& [key, value] : sim) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    if (key.size() < suffix.size() ||
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    total += value;
  }
  return total;
}

double CounterDelta::Registry(const std::string& name,
                              const std::string& label) const {
  double total = 0;
  for (const auto& [key, value] : registry) {
    if (key.substr(0, key.find('{')) != name) continue;
    if (!label.empty() && key.find(label) == std::string::npos) continue;
    total += value;
  }
  return total;
}

double LiveFiles(Lake* lake, const std::string& table_id) {
  auto files = lake->env.meta().Snapshot(table_id);
  return files.ok() ? static_cast<double>(files->size()) : 0.0;
}

// ---- Profile attribution ----------------------------------------------------

namespace {

double WallMs(const obs::Span& s) {
  return static_cast<double>(s.wall_nanos()) / 1e6;
}

bool IsOperator(const obs::Span& s) { return s.kind() == obs::Span::kOperator; }

// Sum of the wall time of the nearest operator descendants of `s`.
double ChildOperatorMs(const obs::Span& s) {
  double total = 0;
  for (const auto& child : s.children()) {
    total += IsOperator(*child) ? WallMs(*child) : ChildOperatorMs(*child);
  }
  return total;
}

void Walk(const obs::Span& s, LayerTimes* t) {
  if (IsOperator(s)) {
    const std::string& name = s.name();
    double total = WallMs(s);
    if (name == "op:scan") {
      t->scan_ms += total;  // the scan layer includes its stream fan-out
    } else {
      double self = std::max(0.0, total - ChildOperatorMs(s));
      if (name == "op:hash_join") {
        t->join_ms += self;
      } else if (name == "op:aggregate") {
        t->aggregate_ms += self;
      } else if (name == "op:order_by" || name == "op:limit") {
        t->sort_limit_ms += self;
      } else {
        t->other_ms += self;
      }
    }
  }
  if (s.name() == "op:scan") return;
  for (const auto& child : s.children()) Walk(*child, t);
}

}  // namespace

void LayerTimes::Add(const obs::QueryProfile& profile) {
  const obs::Span* root = profile.root();
  if (root == nullptr) return;
  root_ms += WallMs(*root);
  Walk(*root, this);
}

namespace {

size_t CountConjuncts(const ExprPtr& e) {
  if (e == nullptr) return 0;
  if (e->kind() == Expr::Kind::kLogical &&
      e->logical_op() == LogicalOp::kAnd) {
    size_t n = 0;
    for (const auto& c : e->children()) n += CountConjuncts(c);
    return n;
  }
  return 1;
}

bool HasJoinBelow(const PlanPtr& p) {
  if (p == nullptr) return false;
  if (p->kind == Plan::Kind::kHashJoin) return true;
  for (const auto& c : p->children) {
    if (HasJoinBelow(c)) return true;
  }
  return false;
}

}  // namespace

uint64_t FiltersAboveJoin(const PlanPtr& plan) {
  if (plan == nullptr) return 0;
  uint64_t n = 0;
  if (plan->kind == Plan::Kind::kFilter && HasJoinBelow(plan)) {
    n += CountConjuncts(plan->filter);
  }
  for (const auto& c : plan->children) n += FiltersAboveJoin(c);
  return n;
}

// ---- Run statistics ---------------------------------------------------------

void RunStats::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void RunStats::RecordQuery(const std::string& kind, double ms, double cpu_ms) {
  query_ms_by_kind[kind].push_back(ms);
  query_ms.push_back(ms);
  RecordOther(ms, cpu_ms);
}

void RunStats::RecordCommit(double ms, double cpu_ms) {
  commit_ms.push_back(ms);
  RecordOther(ms, cpu_ms);
}

void RunStats::RecordOther(double ms, double cpu_ms) {
  op_ms_total += ms;
  cpu_ms_total += cpu_ms;
  ++ops;
}

RunStats::Mark RunStats::Here() const {
  return {query_ms.size(), commit_ms.size(), op_ms_total, cpu_ms_total};
}

void RunStats::ScaleSince(const Mark& m, double speed) {
  for (size_t i = m.queries; i < query_ms.size(); ++i) query_ms[i] *= speed;
  for (size_t i = m.commits; i < commit_ms.size(); ++i) commit_ms[i] *= speed;
  op_ms_total = m.op_ms + (op_ms_total - m.op_ms) * speed;
  cpu_ms_total = m.cpu_ms + (cpu_ms_total - m.cpu_ms) * speed;
}

void LayerReport::Set(const std::string& name, double value,
                      const std::string& unit, const std::string& clock,
                      const std::string& note) {
  values_[name] = {value, unit};
  std::printf("layer %-40s %16.6f %-8s clock=%s%s%s\n", name.c_str(), value,
              unit.c_str(), clock.c_str(), note.empty() ? "" : "  ",
              note.c_str());
}

// ---- Shared workload helpers ------------------------------------------------

QueryResult RunQuery(QueryEngine* engine, const Principal& principal,
                     const std::string& kind, const std::string& sql,
                     const Fingerprint* expect, RunStats* stats, bool traced) {
  ++stats->attempted;
  obs::QueryProfile profile;
  double ms = 0, cpu = 0;
  double parse_us = 0;
  auto result = TimeOp(&ms, &cpu, [&]() -> Result<QueryResult> {
    auto t0 = Clock::now();
    auto plan = ParseSql(sql);
    parse_us = MsSince(t0) * 1e3;
    if (!plan.ok()) return plan.status();
    return engine->Execute(principal, *plan, traced ? &profile : nullptr);
  });
  stats->RecordQuery(kind, ms, cpu);
  if (!result.ok()) {
    stats->Fail(kind + ": " + result.status().ToString());
    return QueryResult();
  }
  if (expect != nullptr && FingerprintOf(result->batch) != *expect) {
    stats->Fail(kind + ": result differs from the checked first pass");
  }
  if (traced) {
    stats->parse_us.push_back(parse_us);
    stats->layers.Add(profile);
    ++stats->profiled_queries;
    stats->result_rows += result->batch.num_rows();
  }
  return std::move(*result);
}

namespace {

SchemaPtr JobLogSchema() {
  return MakeSchema({{"job_id", DataType::kInt64, false},
                     {"kind", DataType::kString, false},
                     {"rows", DataType::kInt64, false}});
}

}  // namespace

Status JobLog::Create(Lake* lake) {
  lake_ = lake;
  TableDef def;
  def.dataset = "ds";
  def.name = "job_log";
  def.schema = JobLogSchema();
  def.connection = "us.lake-conn";
  def.location = lake->gcp;
  def.bucket = "lake";
  def.prefix = "job_log/";
  def.iam.Grant("*", Role::kWriter);
  BL_RETURN_NOT_OK(lake->blmt->CreateTable(def));
  table_id_ = def.id();
  return Status::OK();
}

void JobLog::Append(const std::string& kind, uint64_t rows, RunStats* stats) {
  BatchBuilder b(JobLogSchema());
  (void)b.AppendRow({Value::Int64(next_job_++), Value::String(kind),
                     Value::Int64(static_cast<int64_t>(rows))});
  RecordBatch batch = b.Finish();
  stats->layer_counts["objstore.user_bytes"] += batch.MemoryBytes();
  ++stats->attempted;
  double ms = 0, cpu = 0;
  auto r = TimeOp(&ms, &cpu, [&] {
    return lake_->blmt->Insert("user:client", table_id_, batch);
  });
  stats->RecordCommit(ms, cpu);
  stats->layer_ms["core.blmt.insert_ms"].push_back(ms);
  if (!r.ok()) stats->Fail("job log insert: " + r.status().ToString());
}

void TableProbes(Lake* lake, const std::string& table_id,
                 const std::string& data_prefix, bool use_block_cache,
                 LayerReport* out) {
  constexpr int kReps = 5;
  StorageReadApi* api = lake->read_api.get();
  std::vector<double> session_us, stream_ms, stream_max_ms, concat_ms;
  uint64_t rows = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    ReadSessionOptions opts;
    opts.max_streams = Workers();
    opts.use_block_cache = use_block_cache;
    auto t0 = Clock::now();
    auto session = api->CreateReadSession("user:admin", table_id, opts);
    session_us.push_back(MsSince(t0) * 1e3);
    if (!session.ok()) return;
    std::vector<BatchHandle> handles;
    double slowest = 0;
    rows = 0;
    for (size_t s = 0; s < session->streams.size(); ++s) {
      auto ts = Clock::now();
      auto h = api->ReadStreamHandles(*session, s);
      double ms = MsSince(ts);
      if (!h.ok()) return;
      stream_ms.push_back(ms);
      slowest = std::max(slowest, ms);
      for (auto& handle : *h) handles.push_back(std::move(handle));
    }
    stream_max_ms.push_back(slowest);
    auto tc = Clock::now();
    std::vector<RecordBatch> opened;
    for (const BatchHandle& h : handles) {
      auto b = h.Open();
      if (b.ok()) opened.push_back(std::move(*b));
    }
    auto all = RecordBatch::Concat(opened);
    concat_ms.push_back(MsSince(tc));
    if (all.ok()) rows = all->num_rows();
  }
  out->Set("core.read_api.session_us", Median(session_us), "us", "real",
           "CreateReadSession, median of 5");
  out->Set("core.read_api.stream_ms_p50", Median(stream_ms), "ms", "real",
           "ReadStreamHandles per stream");
  out->Set("core.read_api.stream_ms_max", Median(stream_max_ms), "ms", "real",
           "slowest stream of a session, median of 5");
  out->Set("core.read_api.rows_returned", static_cast<double>(rows), "count",
           "sim", "rows of one full-table session");
  out->Set("columnar.concat_ms", Median(concat_ms), "ms", "real",
           "open + Concat of every handle of one session");

  // Parquet-lite decode of the table's objects (object bytes fetched first,
  // untimed; footer parse + every row group decode timed).
  auto objects = lake->store->ListAll(lake->Caller(), "lake", data_prefix);
  std::vector<std::string> blobs;
  if (objects.ok()) {
    for (const ObjectMetadata& m : *objects) {
      auto data = lake->store->Get(lake->Caller(), "lake", m.name);
      if (data.ok()) blobs.push_back(std::move(*data));
    }
  }
  std::vector<double> decode_ms;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    for (const std::string& blob : blobs) {
      StringSource src(blob);
      auto meta = ReadParquetFooter(src);
      if (!meta.ok()) continue;
      VectorizedReader reader(&src, *meta);
      for (size_t g = 0; g < reader.num_row_groups(); ++g) {
        (void)reader.ReadRowGroup(g);
      }
    }
    decode_ms.push_back(MsSince(t0));
  }
  out->Set("format.decode_ms", Median(decode_ms), "ms", "real",
           std::to_string(blobs.size()) + " objects, median of 3");

  // Full-scan scaling: the same scan at one worker and at Workers().
  auto time_scan = [&](uint32_t workers) {
    EngineOptions opts = BaseEngineOptions();
    opts.num_workers = workers;
    opts.enable_block_cache = use_block_cache;
    QueryEngine engine(&lake->env, api, opts);
    PlanPtr plan = Plan::Scan(table_id);
    (void)engine.Execute("user:admin", plan);
    std::vector<double> ms;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = Clock::now();
      (void)engine.Execute("user:admin", plan);
      ms.push_back(MsSince(t0));
    }
    return Median(ms);
  };
  double one = time_scan(1);
  double many = time_scan(Workers());
  out->Set("engine.scan_speedup_4v1", many > 0 ? one / many : 0.0, "x",
           "real",
           "full scan at 1 vs " + std::to_string(Workers()) + " workers");
}

}  // namespace perfbench
