#include <gtest/gtest.h>

#include "format/iceberg_lite.h"
#include "format/parquet_lite.h"
#include "common/random.h"

namespace biglake {
namespace {

SchemaPtr SalesSchema() {
  return MakeSchema({{"id", DataType::kInt64, false},
                     {"region", DataType::kString, true},
                     {"qty", DataType::kInt64, true},
                     {"price", DataType::kDouble, true}});
}

RecordBatch SalesBatch(size_t rows, uint64_t seed = 1) {
  Random rng(seed);
  static const char* kRegions[] = {"east", "west", "north", "south"};
  BatchBuilder b(SalesSchema());
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.push_back(Value::Int64(static_cast<int64_t>(i)));
    row.push_back(Value::String(kRegions[rng.Uniform(4)]));
    row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(100))));
    row.push_back(Value::Double(rng.NextDouble() * 50.0));
    EXPECT_TRUE(b.AppendRow(row).ok());
  }
  return b.Finish();
}

TEST(ParquetLiteTest, WriteReadRoundTrip) {
  RecordBatch batch = SalesBatch(1000);
  auto bytes = WriteParquetFile(batch);
  ASSERT_TRUE(bytes.ok());
  StringSource source(*bytes);
  auto meta = ReadParquetFooter(source);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->total_rows, 1000u);
  EXPECT_TRUE(meta->schema->Equals(*batch.schema()));

  VectorizedReader reader(&source, *meta);
  std::vector<RecordBatch> groups;
  for (size_t g = 0; g < reader.num_row_groups(); ++g) {
    auto rb = reader.ReadRowGroup(g);
    ASSERT_TRUE(rb.ok());
    groups.push_back(*rb);
  }
  auto all = RecordBatch::Concat(groups);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->num_rows(), batch.num_rows());
  for (size_t r = 0; r < 1000; r += 97) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_TRUE(all->GetValue(r, c) == batch.GetValue(r, c));
    }
  }
}

TEST(ParquetLiteTest, MultipleRowGroups) {
  ParquetWriteOptions opts;
  opts.row_group_size = 100;
  RecordBatch batch = SalesBatch(450);
  auto bytes = WriteParquetFile(batch, opts);
  ASSERT_TRUE(bytes.ok());
  StringSource source(*bytes);
  auto meta = ReadParquetFooter(source);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->row_groups.size(), 5u);
  EXPECT_EQ(meta->row_groups[4].num_rows, 50u);
}

TEST(ParquetLiteTest, StringColumnsGetDictionaryEncoded) {
  RecordBatch batch = SalesBatch(500);
  auto bytes = WriteParquetFile(batch);
  ASSERT_TRUE(bytes.ok());
  StringSource source(*bytes);
  auto meta = ReadParquetFooter(source);
  ASSERT_TRUE(meta.ok());
  VectorizedReader reader(&source, *meta);
  auto rb = reader.ReadRowGroup(0, {"region"});
  ASSERT_TRUE(rb.ok());
  // 4 distinct regions over 500 rows -> dictionary.
  EXPECT_EQ(rb->column(0).encoding(), Encoding::kDictionary);
}

TEST(ParquetLiteTest, SortedIntColumnGetsRleEncoded) {
  auto schema = MakeSchema({{"part", DataType::kInt64, false}});
  std::vector<int64_t> vals;
  for (int p = 0; p < 5; ++p) vals.insert(vals.end(), 200, p);
  std::vector<Column> cols{Column::MakeInt64(vals)};
  RecordBatch batch(schema, std::move(cols));
  auto bytes = WriteParquetFile(batch);
  ASSERT_TRUE(bytes.ok());
  StringSource source(*bytes);
  auto meta = ReadParquetFooter(source);
  ASSERT_TRUE(meta.ok());
  VectorizedReader reader(&source, *meta);
  auto rb = reader.ReadRowGroup(0);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->column(0).encoding(), Encoding::kRunLength);
  EXPECT_EQ(rb->GetValue(250, 0), Value::Int64(1));
}

TEST(ParquetLiteTest, FooterStatsMatchData) {
  RecordBatch batch = SalesBatch(300);
  auto bytes = WriteParquetFile(batch);
  ASSERT_TRUE(bytes.ok());
  StringSource source(*bytes);
  auto meta = ReadParquetFooter(source);
  ASSERT_TRUE(meta.ok());
  ColumnStats id_stats = meta->FileColumnStats(0);
  EXPECT_EQ(id_stats.min, Value::Int64(0));
  EXPECT_EQ(id_stats.max, Value::Int64(299));
  EXPECT_EQ(id_stats.row_count, 300u);
  EXPECT_EQ(id_stats.null_count, 0u);
}

TEST(ParquetLiteTest, ColumnProjectionReadsSubset) {
  RecordBatch batch = SalesBatch(100);
  auto bytes = WriteParquetFile(batch);
  ASSERT_TRUE(bytes.ok());
  StringSource source(*bytes);
  auto meta = ReadParquetFooter(source);
  ASSERT_TRUE(meta.ok());
  VectorizedReader reader(&source, *meta);
  auto rb = reader.ReadRowGroup(0, {"price", "id"});
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->num_columns(), 2u);
  EXPECT_EQ(rb->schema()->field(0).name, "price");
  EXPECT_FALSE(reader.ReadRowGroup(0, {"bogus"}).ok());
}

TEST(ParquetLiteTest, RowOrientedReaderMatchesVectorized) {
  ParquetWriteOptions opts;
  opts.row_group_size = 64;
  RecordBatch batch = SalesBatch(200);
  auto bytes = WriteParquetFile(batch, opts);
  ASSERT_TRUE(bytes.ok());
  StringSource source(*bytes);
  auto meta = ReadParquetFooter(source);
  ASSERT_TRUE(meta.ok());
  RowOrientedReader reader(&source, *meta);
  auto all = reader.ReadAllTranscoded();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->num_rows(), 200u);
  for (size_t r = 0; r < 200; r += 13) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_TRUE(all->GetValue(r, c) == batch.GetValue(r, c));
    }
  }
}

TEST(ParquetLiteTest, CorruptFooterDetected) {
  RecordBatch batch = SalesBatch(50);
  auto bytes = WriteParquetFile(batch);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() - 25] ^= 0xff;  // inside the footer
  StringSource source(corrupted);
  EXPECT_FALSE(ReadParquetFooter(source).ok());
}

TEST(ParquetLiteTest, TruncatedFileDetected) {
  StringSource tiny("abc");
  EXPECT_FALSE(ReadParquetFooter(tiny).ok());
}

TEST(ParquetLiteTest, NullsSurviveRoundTrip) {
  auto schema = MakeSchema({{"x", DataType::kInt64, true}});
  BatchBuilder b(schema);
  ASSERT_TRUE(b.AppendRow({Value::Int64(5)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(7)}).ok());
  auto bytes = WriteParquetFile(b.Finish());
  ASSERT_TRUE(bytes.ok());
  StringSource source(*bytes);
  auto meta = ReadParquetFooter(source);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->row_groups[0].columns[0].stats.null_count, 1u);
  VectorizedReader reader(&source, *meta);
  auto rb = reader.ReadRowGroup(0);
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(rb->GetValue(1, 0).is_null());
  EXPECT_EQ(rb->GetValue(2, 0), Value::Int64(7));
}

// ---- Writer byte identity ---------------------------------------------------
// The writer re-encodes dictionary input by remapping its indices instead of
// decoding it; the file must not depend on the input's encoding.

RecordBatch DecodedCopy(const RecordBatch& batch) {
  std::vector<Column> cols;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    cols.push_back(batch.column(c).Decode());
  }
  return RecordBatch(batch.schema(), std::move(cols));
}

/// A dictionary column with duplicate and unused entries; `distinct` values
/// are referenced, one row in `null_one_in` is NULL (0 = no validity).
Column DictionaryColumn(Random* rng, size_t rows, size_t distinct,
                        uint64_t null_one_in) {
  std::vector<std::string> dict = {""};  // also what a NULL row reads as
  for (size_t i = 1; i < distinct; ++i) {
    dict.push_back("v" + std::to_string(i));
    if (i % 3 == 0) dict.push_back("v" + std::to_string(i));  // duplicate
  }
  const size_t used = dict.size();
  dict.push_back("never-used");
  dict.push_back("");  // unused duplicate
  std::vector<uint32_t> indices(rows);
  for (auto& idx : indices) idx = static_cast<uint32_t>(rng->Uniform(used));
  std::vector<uint8_t> validity;
  if (null_one_in > 0) {
    validity.resize(rows);
    for (auto& v : validity) v = rng->OneIn(null_one_in) ? 0 : 1;
  }
  return Column::MakeDictionaryString(std::move(indices), std::move(dict),
                                      std::move(validity));
}

void ExpectSameFileAsDecoded(const RecordBatch& batch,
                             ParquetWriteOptions opts) {
  auto encoded = WriteParquetFile(batch, opts);
  auto decoded = WriteParquetFile(DecodedCopy(batch), opts);
  ASSERT_TRUE(encoded.ok());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*encoded == *decoded);
}

TEST(ParquetLiteTest, DictionaryInputWritesSameBytesAsDecoded) {
  auto schema = MakeSchema({{"s", DataType::kString, true}});
  ParquetWriteOptions opts;
  opts.row_group_size = 300;
  opts.dict_max_card = 40;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Random rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    // With nulls, without validity, all NULL, and above dict_max_card.
    for (auto [distinct, null_one_in] :
         {std::pair<size_t, uint64_t>{5, 4}, {12, 0}, {3, 1}, {90, 5}}) {
      std::vector<Column> cols{
          DictionaryColumn(&rng, 1000, distinct, null_one_in)};
      RecordBatch batch(schema, std::move(cols));
      ExpectSameFileAsDecoded(batch, opts);
      ExpectSameFileAsDecoded(batch.Slice(17, 700), opts);
    }
  }
}

TEST(ParquetLiteTest, DictionaryInputAboveRatioWritesSameBytesAsDecoded) {
  // Above dict_cardinality_ratio (default options) the column stays plain.
  auto schema = MakeSchema({{"s", DataType::kString, true}});
  Random rng(7);
  std::vector<Column> cols{DictionaryColumn(&rng, 200, 150, 9)};
  ExpectSameFileAsDecoded(RecordBatch(schema, std::move(cols)), {});
}

TEST(ParquetLiteTest, MixedBatchFileBytesArePinned) {
  auto schema = MakeSchema({{"id", DataType::kInt64, false},
                            {"day", DataType::kTimestamp, false},
                            {"price", DataType::kDouble, true},
                            {"flag", DataType::kBool, true},
                            {"region", DataType::kString, true},
                            {"tag", DataType::kBytes, true},
                            {"note", DataType::kString, true}});
  Random rng(2024);
  static const char* kRegions[] = {"east", "west", "", "north"};
  BatchBuilder b(schema);
  for (size_t i = 0; i < 1000; ++i) {
    std::vector<Value> row;
    row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(5000)) - 100));
    row.push_back(Value::Timestamp(1700000000000000 +
                                   static_cast<int64_t>(i / 50) * 86400000000));
    row.push_back(rng.OneIn(7) ? Value::Null()
                               : Value::Double(rng.NextDouble() * 10 - 5));
    row.push_back(rng.OneIn(5) ? Value::Null() : Value::Bool(rng.OneIn(2)));
    row.push_back(rng.OneIn(9) ? Value::Null()
                               : Value::String(kRegions[rng.Uniform(4)]));
    row.push_back(Value::String(std::string("t\0", 2) +
                                std::to_string(rng.Uniform(3))));
    row.push_back(rng.OneIn(11) ? Value::Null()
                                : Value::String(rng.NextString(6)));
    ASSERT_TRUE(b.AppendRow(row).ok());
  }
  ParquetWriteOptions opts;
  opts.row_group_size = 256;
  auto bytes = WriteParquetFile(b.Finish(), opts);
  ASSERT_TRUE(bytes.ok());
  // Pinned from the writer with boxed statistics and map-based dictionary
  // encoding: footer, statistics and column chunks must stay identical.
  EXPECT_EQ(bytes->size(), 24509u);
  EXPECT_EQ(Fnv1a64(*bytes), 8484682911730693041ull);
}

// ---- Iceberg-lite ----------------------------------------------------------

class IcebergTest : public ::testing::Test {
 protected:
  IcebergTest() : store_(&env_, Options()) {
    EXPECT_TRUE(store_.CreateBucket("lake").ok());
  }
  static ObjectStoreOptions Options() {
    ObjectStoreOptions o;
    o.location = {CloudProvider::kGCP, "us-central1"};
    return o;
  }
  CallerContext Caller() const {
    return {.location = {CloudProvider::kGCP, "us-central1"}};
  }
  DataFileEntry File(const std::string& path, uint64_t rows,
                     int64_t part = 0) {
    DataFileEntry e;
    e.path = path;
    e.size_bytes = rows * 40;
    e.row_count = rows;
    e.partition = {{"date", Value::Int64(part)}};
    ColumnStats s;
    s.min = Value::Int64(0);
    s.max = Value::Int64(static_cast<int64_t>(rows));
    s.row_count = rows;
    e.column_stats["id"] = s;
    return e;
  }

  SimEnv env_;
  ObjectStore store_;
};

TEST_F(IcebergTest, CreateAndLoad) {
  auto table = IcebergTable::Create(&store_, Caller(), "lake", "t1/",
                                    SalesSchema(), {"date"});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->metadata().current_snapshot_id, 0u);

  auto loaded = IcebergTable::Load(&store_, Caller(), "lake", "t1/");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->metadata().schema->Equals(*SalesSchema()));
  EXPECT_EQ(loaded->metadata().partition_columns,
            (std::vector<std::string>{"date"}));
}

TEST_F(IcebergTest, CreateTwiceFails) {
  ASSERT_TRUE(
      IcebergTable::Create(&store_, Caller(), "lake", "t/", SalesSchema())
          .ok());
  EXPECT_FALSE(
      IcebergTable::Create(&store_, Caller(), "lake", "t/", SalesSchema())
          .ok());
}

TEST_F(IcebergTest, LoadMissingFails) {
  EXPECT_TRUE(IcebergTable::Load(&store_, Caller(), "lake", "none/")
                  .status()
                  .IsNotFound());
}

TEST_F(IcebergTest, AppendCreatesSnapshots) {
  auto table =
      IcebergTable::Create(&store_, Caller(), "lake", "t/", SalesSchema());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table->CommitAppend(Caller(), {File("f1", 100)}).ok());
  ASSERT_TRUE(table->CommitAppend(Caller(), {File("f2", 50)}).ok());
  EXPECT_EQ(table->metadata().current_snapshot_id, 2u);
  auto files = table->ReadCurrentManifest(Caller());
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  EXPECT_EQ((*files)[0].path, "f1");
  EXPECT_EQ((*files)[1].row_count, 50u);
  EXPECT_EQ(table->metadata().CurrentSnapshot()->total_rows, 150u);
}

TEST_F(IcebergTest, TimeTravelReadsOldSnapshot) {
  auto table =
      IcebergTable::Create(&store_, Caller(), "lake", "t/", SalesSchema());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table->CommitAppend(Caller(), {File("f1", 100)}).ok());
  ASSERT_TRUE(table->CommitAppend(Caller(), {File("f2", 50)}).ok());
  auto v1 = table->ReadManifestAt(Caller(), 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->size(), 1u);
  EXPECT_TRUE(table->ReadManifestAt(Caller(), 99).status().IsNotFound());
}

TEST_F(IcebergTest, ReplaceRewritesFileList) {
  auto table =
      IcebergTable::Create(&store_, Caller(), "lake", "t/", SalesSchema());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      table->CommitAppend(Caller(), {File("f1", 100), File("f2", 100)}).ok());
  ASSERT_TRUE(table->CommitReplace(Caller(), {File("compacted", 200)}).ok());
  auto files = table->ReadCurrentManifest(Caller());
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  EXPECT_EQ((*files)[0].path, "compacted");
}

TEST_F(IcebergTest, ConcurrentCommitConflictRetries) {
  auto t1 =
      IcebergTable::Create(&store_, Caller(), "lake", "t/", SalesSchema());
  ASSERT_TRUE(t1.ok());
  auto t2 = IcebergTable::Load(&store_, Caller(), "lake", "t/");
  ASSERT_TRUE(t2.ok());
  // Both handles commit; the second sees a CAS conflict and retries.
  ASSERT_TRUE(t1->CommitAppend(Caller(), {File("a", 10)}).ok());
  ASSERT_TRUE(t2->CommitAppend(Caller(), {File("b", 20)}).ok());
  auto files = t2->ReadCurrentManifest(Caller());
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 2u);  // both survive
}

TEST_F(IcebergTest, CommitRateIsBoundedByPointerMutationLimit) {
  auto table =
      IcebergTable::Create(&store_, Caller(), "lake", "t/", SalesSchema());
  ASSERT_TRUE(table.ok());
  SimMicros start = env_.clock().Now();
  const int kCommits = 30;
  for (int i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(
        table->CommitAppend(Caller(), {File("f" + std::to_string(i), 1)})
            .ok());
  }
  double elapsed_sec =
      static_cast<double>(env_.clock().Now() - start) / 1e6;
  double commits_per_sec = kCommits / elapsed_sec;
  // The store allows 5 mutations/object/sec; with backoff overhead the
  // sustained commit rate must land at or below that bound.
  EXPECT_LE(commits_per_sec,
            static_cast<double>(
                store_.options().max_mutations_per_object_per_sec) +
                1.0);
  EXPECT_GT(env_.counters().Get("iceberg.commit_backoffs"), 0u);
}

TEST_F(IcebergTest, ManifestEntryRoundTrip) {
  DataFileEntry e = File("path/to/file", 123, 20231101);
  std::string buf;
  EncodeDataFileEntry(&buf, e);
  Decoder dec(buf);
  DataFileEntry out;
  ASSERT_TRUE(DecodeDataFileEntry(&dec, &out).ok());
  EXPECT_EQ(out.path, e.path);
  EXPECT_EQ(out.row_count, 123u);
  ASSERT_EQ(out.partition.size(), 1u);
  EXPECT_EQ(out.partition[0].first, "date");
  EXPECT_EQ(out.partition[0].second, Value::Int64(20231101));
  EXPECT_EQ(out.column_stats.at("id").max, Value::Int64(123));
}

}  // namespace
}  // namespace biglake
