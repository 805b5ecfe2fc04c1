// Unit tests for the observability layer (src/obs/): metrics registry,
// histogram bucketing, concurrent updates, trace span integrity, and the
// Prometheus-text dump format.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/sim_env.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace biglake {
namespace obs {
namespace {

TEST(MetricsTest, LabeledSeriesAreIndependent) {
  MetricsRegistry reg;
  reg.GetCounter("reqs", {{"op", "get"}})->Add(3);
  reg.GetCounter("reqs", {{"op", "put"}})->Add(5);
  // Label order must not matter: {a,b} and {b,a} are the same series.
  reg.GetCounter("multi", {{"a", "1"}, {"b", "2"}})->Add(1);
  reg.GetCounter("multi", {{"b", "2"}, {"a", "1"}})->Add(1);

  EXPECT_EQ(reg.CounterValue("reqs", {{"op", "get"}}), 3u);
  EXPECT_EQ(reg.CounterValue("reqs", {{"op", "put"}}), 5u);
  EXPECT_EQ(reg.CounterValue("multi", {{"a", "1"}, {"b", "2"}}), 2u);
  EXPECT_EQ(reg.CounterValue("absent"), 0u);
}

TEST(MetricsTest, HandleIsStableAcrossLookups) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("c", {{"k", "v"}});
  Counter* b = reg.GetCounter("c", {{"k", "v"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, GaugeSetMaxKeepsHighWaterMark) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("depth");
  g->SetMax(4);
  g->SetMax(9);
  g->SetMax(2);
  EXPECT_EQ(g->Value(), 9);
}

TEST(MetricsTest, TypeMismatchedLookupReturnsDetachedSink) {
  MetricsRegistry reg;
  reg.GetCounter("x")->Add(1);
  // Wrong-typed lookups must not crash and must not corrupt the family.
  Gauge* sink = reg.GetGauge("x");
  ASSERT_NE(sink, nullptr);
  sink->Set(42);
  EXPECT_EQ(reg.CounterValue("x"), 1u);
  // The sink never appears in the dump.
  std::string dump = reg.DumpMetrics();
  EXPECT_NE(dump.find("# TYPE x counter"), std::string::npos);
  EXPECT_EQ(dump.find("42"), std::string::npos);
}

TEST(HistogramTest, BucketBoundariesAreInclusive) {
  HistogramBounds bounds{{10, 100, 1000}};
  Histogram h(bounds);
  // A sample exactly on a bound lands in that bound's bucket.
  EXPECT_EQ(h.BucketIndexFor(0), 0u);
  EXPECT_EQ(h.BucketIndexFor(10), 0u);
  EXPECT_EQ(h.BucketIndexFor(11), 1u);
  EXPECT_EQ(h.BucketIndexFor(100), 1u);
  EXPECT_EQ(h.BucketIndexFor(1000), 2u);
  EXPECT_EQ(h.BucketIndexFor(1001), 3u);  // overflow (+Inf) bucket

  h.Observe(10);
  h.Observe(10);
  h.Observe(500);
  h.Observe(99999);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 10u + 10u + 500u + 99999u);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 0u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);
}

TEST(HistogramTest, ExponentialBoundsAscend) {
  HistogramBounds b = HistogramBounds::Exponential(100, 10.0, 4);
  ASSERT_EQ(b.upper.size(), 4u);
  EXPECT_EQ(b.upper[0], 100u);
  EXPECT_EQ(b.upper[1], 1000u);
  EXPECT_EQ(b.upper[2], 10000u);
  EXPECT_EQ(b.upper[3], 100000u);
}

TEST(MetricsTest, ConcurrentUpdatesUnderThreadPoolAreExact) {
  MetricsRegistry reg;
  ThreadPool pool(8);
  constexpr size_t kTasks = 64;
  constexpr uint64_t kAddsPerTask = 1000;
  Status s = pool.ParallelFor(kTasks, [&](size_t i) -> Status {
    // Mix handle resolution (sharded map) with hot-path updates, across
    // several distinct series, all concurrently.
    Counter* shared = reg.GetCounter("shared");
    Counter* mine =
        reg.GetCounter("per_task", {{"slot", std::to_string(i % 4)}});
    Histogram* h = reg.GetHistogram("lat");
    for (uint64_t k = 0; k < kAddsPerTask; ++k) {
      shared->Increment();
      mine->Increment();
      h->Observe(i);
    }
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(reg.CounterValue("shared"), kTasks * kAddsPerTask);
  uint64_t per_task_total = 0;
  for (int slot = 0; slot < 4; ++slot) {
    per_task_total +=
        reg.CounterValue("per_task", {{"slot", std::to_string(slot)}});
  }
  EXPECT_EQ(per_task_total, kTasks * kAddsPerTask);
  EXPECT_EQ(reg.GetHistogram("lat")->Count(), kTasks * kAddsPerTask);
}

TEST(DumpTest, PrometheusTextFormatIsWellFormed) {
  MetricsRegistry reg;
  reg.Describe("reqs", "Requests served", "1");
  reg.GetCounter("reqs", {{"op", "get"}})->Add(2);
  reg.GetGauge("depth")->Set(3);
  HistogramBounds bounds{{10, 100}};
  Histogram* h = reg.GetHistogram("lat", {}, &bounds);
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);

  std::string dump = reg.DumpMetrics();
  EXPECT_NE(dump.find("# HELP reqs Requests served"), std::string::npos);
  EXPECT_NE(dump.find("# TYPE reqs counter"), std::string::npos);
  EXPECT_NE(dump.find("reqs{op=\"get\"} 2\n"), std::string::npos);
  EXPECT_NE(dump.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(dump.find("depth 3\n"), std::string::npos);
  EXPECT_NE(dump.find("# TYPE lat histogram"), std::string::npos);
  // Buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(dump.find("lat_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(dump.find("lat_bucket{le=\"100\"} 2\n"), std::string::npos);
  EXPECT_NE(dump.find("lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(dump.find("lat_sum 555\n"), std::string::npos);
  EXPECT_NE(dump.find("lat_count 3\n"), std::string::npos);

  // Every line is either a comment or `name[{labels}] value`.
  size_t start = 0;
  while (start < dump.size()) {
    size_t end = dump.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "dump must end in newline";
    std::string line = dump.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name_part = line.substr(0, space);
    std::string value_part = line.substr(space + 1);
    EXPECT_FALSE(name_part.empty()) << line;
    EXPECT_FALSE(value_part.empty()) << line;
    // Value parses as a number.
    EXPECT_NE(value_part.find_first_of("0123456789"), std::string::npos)
        << line;
    // Braces balance.
    size_t open = name_part.find('{');
    if (open != std::string::npos) {
      EXPECT_EQ(name_part.back(), '}') << line;
    }
  }

  // Dumps are deterministic.
  EXPECT_EQ(dump, reg.DumpMetrics());
}

TEST(DumpTest, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.GetCounter("c", {{"path", "a\"b\\c\nd"}})->Add(1);
  std::string dump = reg.DumpMetrics();
  EXPECT_NE(dump.find("c{path=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos);
}

TEST(TraceTest, SpanTreeParentChildIntegrity) {
  SimEnv env;
  Tracer tracer(&env);
  Span* root = tracer.StartRoot("query", Span::kQuery);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent(), nullptr);
  EXPECT_TRUE(root->started());

  ScopedTraceContext ctx(&tracer, root);
  EXPECT_EQ(CurrentSpan(), root);
  {
    ScopedSpan stage("execute", Span::kStage);
    ASSERT_NE(stage.get(), nullptr);
    EXPECT_EQ(stage.get()->parent(), root);
    EXPECT_EQ(CurrentSpan(), stage.get());
    env.clock().Advance(100);
    {
      ScopedSpan op("op:scan", Span::kOperator);
      EXPECT_EQ(op.get()->parent(), stage.get());
      env.clock().Advance(40);
      op.AddNum("rows", 10);
      op.AddNum("rows", 5);  // accumulates
    }
    AddCurrentSpanNum("cpu_micros", 7);  // lands on the stage span
  }
  EXPECT_EQ(CurrentSpan(), root);

  ASSERT_EQ(root->children().size(), 1u);
  const Span* stage = root->children()[0].get();
  EXPECT_EQ(stage->name(), "execute");
  EXPECT_TRUE(stage->finished());
  EXPECT_EQ(stage->sim_micros(), 140u);
  EXPECT_EQ(stage->nums().at("cpu_micros"), 7u);
  ASSERT_EQ(stage->children().size(), 1u);
  const Span* op = stage->children()[0].get();
  EXPECT_EQ(op->sim_micros(), 40u);
  EXPECT_EQ(op->nums().at("rows"), 15u);
}

TEST(TraceTest, UntracedThreadSpansAreNoOps) {
  ASSERT_EQ(CurrentSpan(), nullptr);
  ScopedSpan span("orphan", Span::kRpc);
  EXPECT_EQ(span.get(), nullptr);
  span.AddNum("rows", 1);       // must not crash
  AddCurrentSpanNum("x", 1);    // must not crash
  EXPECT_EQ(CurrentSpan(), nullptr);
}

TEST(TraceTest, FanOutSlotSpansReadShardLocalClocks) {
  SimEnv env;
  env.clock().Advance(1000);
  Tracer tracer(&env);
  Span* root = tracer.StartRoot("query", Span::kQuery);

  // The launcher pattern: pre-create slot spans in slot order, then have
  // each task activate its own while a ChargeShard is installed.
  constexpr size_t kSlots = 4;
  std::vector<Span*> slots;
  for (size_t s = 0; s < kSlots; ++s) {
    slots.push_back(root->NewChild("stream:" + std::to_string(s),
                                   Span::kStream));
  }
  std::vector<ChargeShard> shards = env.MakeShards(kSlots);
  ThreadPool pool(4);
  Status st = pool.ParallelFor(kSlots, [&](size_t s) -> Status {
    ScopedChargeShard charge(&shards[s]);
    ScopedSpanActivation act(&tracer, slots[s]);
    env.clock().Advance(10 * (s + 1));  // shard-local advance
    AddCurrentSpanNum("rows", s);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  env.MergeShards(&shards);

  ASSERT_EQ(root->children().size(), kSlots);
  for (size_t s = 0; s < kSlots; ++s) {
    const Span* span = root->children()[s].get();
    // Slot order preserved regardless of scheduling.
    EXPECT_EQ(span->name(), "stream:" + std::to_string(s));
    EXPECT_TRUE(span->finished());
    // Each span's sim duration equals its own shard's advance.
    EXPECT_EQ(span->sim_micros(), 10 * (s + 1));
    EXPECT_EQ(span->nums().at("rows"), s);
  }
}

TEST(ProfileTest, JsonShapeAndWallExclusion) {
  SimEnv env;
  QueryProfile profile;
  Span* root = profile.Begin(&env, "query");
  ASSERT_NE(root, nullptr);
  {
    ScopedTraceContext ctx(profile.tracer(), root);
    ScopedSpan stage("execute", Span::kStage);
    env.clock().Advance(250);
    stage.AddNum("rows", 3);
    stage.AddWallNum("pool_steals", 2);
  }
  root->AddNum("rows_returned", 3);
  profile.End();

  std::string full = profile.ToJson();
  EXPECT_NE(full.find("\"name\": \"query\""), std::string::npos);
  EXPECT_NE(full.find("\"kind\": \"stage\""), std::string::npos);
  EXPECT_NE(full.find("\"sim_micros\""), std::string::npos);
  EXPECT_NE(full.find("wall_micros"), std::string::npos);
  EXPECT_NE(full.find("\"sched\""), std::string::npos);

  ProfileExportOptions det;
  det.include_wall = false;
  det.pretty = false;
  std::string stable = profile.ToJson(det);
  EXPECT_EQ(stable.find("wall_micros"), std::string::npos);
  EXPECT_EQ(stable.find("sched"), std::string::npos);
  EXPECT_EQ(stable.find("pool_steals"), std::string::npos);
  EXPECT_NE(stable.find("\"sim_micros\":250"), std::string::npos);

  std::string text = profile.ToText();
  EXPECT_NE(text.find("query [query]"), std::string::npos);
  EXPECT_NE(text.find("  execute [stage]"), std::string::npos);
}

TEST(ProfileTest, SelfSimMicrosSubtractsChildren) {
  SimEnv env;
  QueryProfile profile;
  Span* root = profile.Begin(&env, "query");
  {
    ScopedTraceContext ctx(profile.tracer(), root);
    ScopedSpan stage("execute", Span::kStage);
    env.clock().Advance(100);  // stage self time
    {
      ScopedSpan op("op:scan", Span::kOperator);
      env.clock().Advance(40);
    }
  }
  profile.End();
  ProfileExportOptions det;
  det.include_wall = false;
  det.pretty = false;
  std::string json = profile.ToJson(det);
  // stage: 140 total, 100 self (40 in the child).
  EXPECT_NE(json.find("\"sim_micros\":140,\"self_sim_micros\":100"),
            std::string::npos);
  EXPECT_NE(json.find("\"sim_micros\":40,\"self_sim_micros\":40"),
            std::string::npos);
}

TEST(ProfileTest, BeginResetsPriorTrace) {
  SimEnv env;
  QueryProfile profile;
  Span* r1 = profile.Begin(&env, "first");
  r1->AddNum("x", 1);
  profile.End();
  Span* r2 = profile.Begin(&env, "second");
  ASSERT_NE(r2, nullptr);
  profile.End();
  std::string json = profile.ToJson();
  EXPECT_EQ(json.find("first"), std::string::npos);
  EXPECT_NE(json.find("second"), std::string::npos);
}

TEST(ProfileTest, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

}  // namespace
}  // namespace obs
}  // namespace biglake
