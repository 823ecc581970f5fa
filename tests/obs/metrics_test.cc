// MetricsRegistry contract tests: histogram bucket boundaries and the
// overflow bucket, counter wrap-around, concurrent-increment exactness,
// snapshot JSON shape, the enabled/disabled gate, and the JSONL sink.

#include "obs/metrics.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/mini_json.h"

namespace crowdrl::obs {
namespace {

using crowdrl::testing::JsonValue;
using crowdrl::testing::MiniJsonParser;

// Every test runs with hooks enabled and a clean slate, and leaves the
// process-wide switches off so unrelated tests keep the zero-overhead
// default.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    MetricsRegistry::Get().ResetAll();
  }
  void TearDown() override {
    MetricsRegistry::Get().ResetAll();
    SetTracing(false);
    SetEnabled(false);
  }
};

TEST_F(MetricsTest, CounterCountsAndResets) {
  Counter* c = MetricsRegistry::Get().GetCounter("test.counter.basic");
  EXPECT_EQ(c->value(), 0u);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->value(), 42u);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
}

TEST_F(MetricsTest, CounterWrapsModulo2To64) {
  Counter* c = MetricsRegistry::Get().GetCounter("test.counter.wrap");
  c->Inc(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(c->value(), std::numeric_limits<uint64_t>::max());
  // Unsigned wrap-around, not saturation: a snapshot consumer diffing
  // successive values sees the correct delta through the wrap.
  c->Inc(3);
  EXPECT_EQ(c->value(), 2u);
}

TEST_F(MetricsTest, DisabledHooksMutateNothing) {
  Counter* c = MetricsRegistry::Get().GetCounter("test.counter.gated");
  Gauge* g = MetricsRegistry::Get().GetGauge("test.gauge.gated");
  Histogram* h = MetricsRegistry::Get().GetHistogram("test.hist.gated");
  SetEnabled(false);
  c->Inc(7);
  g->Set(3.5);
  h->Record(15);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum(), 0u);
  SetEnabled(true);
  c->Inc(7);
  EXPECT_EQ(c->value(), 7u);
}

TEST_F(MetricsTest, RegistrationIsIdempotent) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* c1 = registry.GetCounter("test.counter.same");
  Counter* c2 = registry.GetCounter("test.counter.same");
  EXPECT_EQ(c1, c2);
  Histogram* h1 = registry.GetHistogram("test.hist.same");
  Histogram* h2 = registry.GetHistogram("test.hist.same");
  EXPECT_EQ(h1, h2);
}

TEST_F(MetricsTest, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  // le-style semantics: a sample lands in the first bucket whose bound is
  // >= the value. Exact-boundary values belong to the lower bucket.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  for (size_t i = 0; i < Histogram::kNumBounds; ++i) {
    const uint64_t bound = Histogram::BucketBound(i);
    EXPECT_EQ(Histogram::BucketIndex(bound), i);
    EXPECT_EQ(Histogram::BucketIndex(bound + 1), i + 1);
  }
  // Everything above the last bound shares the overflow bucket, whose
  // quantiles end at the recorded max.
  const uint64_t last = Histogram::BucketBound(Histogram::kNumBounds - 1);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kNumBounds);
  Histogram* h = MetricsRegistry::Get().GetHistogram("test.hist.overflow");
  h->Record(last + 1);
  h->Record(3 * last);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->sum(), 4 * last + 1);
  EXPECT_EQ(h->max(), 3 * last);
  EXPECT_EQ(h->Quantile(0.0), static_cast<double>(last + 1));
  EXPECT_EQ(h->Quantile(1.0), static_cast<double>(3 * last));
}

TEST_F(MetricsTest, ConcurrentIncrementsSumExactly) {
  constexpr int kThreads = 8;
  constexpr uint64_t kIncrementsPerThread = 40000;
  Counter* c = MetricsRegistry::Get().GetCounter("test.counter.mt");
  Histogram* h = MetricsRegistry::Get().GetHistogram("test.hist.mt");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c, h] {
      for (uint64_t i = 0; i < kIncrementsPerThread; ++i) {
        c->Inc();
        h->Record(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), kThreads * kIncrementsPerThread);
  EXPECT_EQ(h->count(), kThreads * kIncrementsPerThread);
  EXPECT_EQ(h->sum(), kThreads * kIncrementsPerThread);
  EXPECT_EQ(h->max(), 1u);
}

TEST_F(MetricsTest, SnapshotIsSortedAndJsonParses) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("test.snap.b")->Inc(2);
  registry.GetCounter("test.snap.a")->Inc(1);
  registry.GetGauge("test.snap.gauge")->Set(-1.25);
  registry.GetHistogram("test.snap.hist")->Record(3);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_GE(snapshot.counters.size(), 2u);
  for (size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }

  JsonValue root;
  ASSERT_TRUE(MiniJsonParser::Parse(snapshot.ToJson(), &root));
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root["counters"]["test.snap.a"].number, 1.0);
  EXPECT_EQ(root["counters"]["test.snap.b"].number, 2.0);
  EXPECT_EQ(root["gauges"]["test.snap.gauge"].number, -1.25);
  const JsonValue& hist = root["histograms"]["test.snap.hist"];
  ASSERT_TRUE(hist.is_object());
  EXPECT_EQ(hist["count"].number, 1.0);
  EXPECT_EQ(hist["sum"].number, 3.0);
  EXPECT_EQ(hist["max"].number, 3.0);
  // A unit-width bucket holds the one sample exactly.
  EXPECT_EQ(hist["p50"].number, 3.0);
  EXPECT_EQ(hist["p90"].number, 3.0);
  EXPECT_EQ(hist["p99"].number, 3.0);
}

TEST_F(MetricsTest, NonFiniteGaugeSerializesAsNull) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetGauge("test.snap.nan")
      ->Set(std::numeric_limits<double>::quiet_NaN());
  JsonValue root;
  ASSERT_TRUE(MiniJsonParser::Parse(registry.Snapshot().ToJson(), &root));
  EXPECT_EQ(root["gauges"]["test.snap.nan"].type,
            JsonValue::Type::kNull);
}

TEST_F(MetricsTest, ResetAllZeroesValuesButKeepsRegistrations) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* c = registry.GetCounter("test.reset.counter");
  Histogram* h = registry.GetHistogram("test.reset.hist");
  c->Inc(5);
  h->Record(7);
  registry.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum(), 0u);
  EXPECT_EQ(h->max(), 0u);
  EXPECT_EQ(h->Quantile(0.5), 0.0);
  // Still registered.
  EXPECT_EQ(registry.GetHistogram("test.reset.hist"), h);
}

TEST_F(MetricsTest, ApplyOptionsIsEnableOnly) {
  SetEnabled(false);
  SetTracing(false);
  ObsOptions off;  // Defaults: everything disabled.
  ApplyOptions(off);
  EXPECT_FALSE(Enabled());

  ObsOptions on;
  on.enabled = true;
  on.tracing = true;
  ApplyOptions(on);
  EXPECT_TRUE(Enabled());
  EXPECT_TRUE(TracingEnabled());
  // A later default-config ApplyOptions must not silence the hooks.
  ApplyOptions(off);
  EXPECT_TRUE(Enabled());
  EXPECT_TRUE(TracingEnabled());
}

TEST_F(MetricsTest, JsonlWriterEmitsOneParseableRecordPerIteration) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* c = registry.GetCounter("test.jsonl.counter");
  std::string path = ::testing::TempDir() + "crowdrl_obs_metrics_test.jsonl";

  MetricsJsonlWriter writer;
  ASSERT_TRUE(writer.Open(path));
  ASSERT_TRUE(writer.is_open());
  c->Inc(1);
  writer.WriteRecord(1, registry.Snapshot());
  c->Inc(1);
  writer.WriteRecord(2, registry.Snapshot());
  writer.Close();
  EXPECT_FALSE(writer.is_open());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t records = 0;
  while (std::getline(in, line)) {
    ++records;
    JsonValue root;
    ASSERT_TRUE(MiniJsonParser::Parse(line, &root)) << line;
    EXPECT_EQ(root["iteration"].number, static_cast<double>(records));
    EXPECT_EQ(root["counters"]["test.jsonl.counter"].number,
              static_cast<double>(records));
  }
  EXPECT_EQ(records, 2u);
  std::remove(path.c_str());
}

TEST_F(MetricsTest, JsonlWriterOpenFailsCleanlyOnBadPath) {
  MetricsJsonlWriter writer;
  EXPECT_FALSE(writer.Open("/nonexistent-dir/really/not/here.jsonl"));
  EXPECT_FALSE(writer.is_open());
}

}  // namespace
}  // namespace crowdrl::obs
