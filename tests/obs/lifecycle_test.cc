// Lifecycle stage histograms: the registry's geometric obs::Histogram
// that every campaign stage records into (bucket layout, exact
// count/sum/max, quantile accuracy at nanosecond and flop magnitudes,
// the enabled gate, concurrent recording), the stage names, and the
// --lifecycle_json report read back from the registry.

#include "obs/lifecycle.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "serve/campaign.h"
#include "tests/testing/mini_json.h"

namespace crowdrl::obs {
namespace {

using crowdrl::serve::LifecycleHistogramName;
using crowdrl::serve::LifecycleReportJson;
using crowdrl::testing::JsonValue;
using crowdrl::testing::MiniJsonParser;

constexpr LifecycleStage kAllStages[] = {
    LifecycleStage::kDispatchToDeliver, LifecycleStage::kDeliverToArrive,
    LifecycleStage::kArriveToCommit, LifecycleStage::kCommitToObserve};

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    SetLifecycle(true);
    MetricsRegistry::Get().ResetAll();
  }
  void TearDown() override {
    MetricsRegistry::Get().ResetAll();
    SetLifecycle(false);
    SetEnabled(false);
  }
};

// Width of the bucket `value` lands in.
double BucketWidth(uint64_t value) {
  const size_t i = Histogram::BucketIndex(value);
  return i == 0 ? 1.0
                : static_cast<double>(Histogram::BucketBound(i) -
                                      Histogram::BucketBound(i - 1));
}

// Checks p50/p90/p99 of `samples` recorded into a fresh histogram
// against the exact order statistics, to one bucket width.
void ExpectQuantilesWithinOneBucket(std::vector<uint64_t> samples) {
  Histogram h;
  for (uint64_t v : samples) h.Record(v);
  std::sort(samples.begin(), samples.end());
  double previous = 0.0;
  for (double q : {0.50, 0.90, 0.99}) {
    const uint64_t truth = samples[static_cast<size_t>(
        q * static_cast<double>(samples.size() - 1))];
    const double estimate = h.Quantile(q);
    EXPECT_LE(std::fabs(estimate - static_cast<double>(truth)),
              BucketWidth(truth))
        << "q=" << q << " truth=" << truth;
    EXPECT_GE(estimate, previous);  // Monotone in q.
    previous = estimate;
  }
}

TEST_F(LifecycleTest, BucketBoundsAreStrictlyAscendingFromOne) {
  EXPECT_EQ(Histogram::BucketBound(0), 1u);
  for (size_t i = 1; i < Histogram::kNumBounds; ++i) {
    EXPECT_GT(Histogram::BucketBound(i), Histogram::BucketBound(i - 1));
    // Geometric with ratio 1.25 above the unit-width start.
    const double previous =
        static_cast<double>(Histogram::BucketBound(i - 1));
    EXPECT_LE(static_cast<double>(Histogram::BucketBound(i)),
              1.26 * previous + 1.0);
  }
  EXPECT_GE(Histogram::BucketBound(Histogram::kNumBounds - 1),
            uint64_t{1} << 40);
}

TEST_F(LifecycleTest, CountSumMaxAreExact) {
  Histogram h;
  h.Record(1'000);
  h.Record(2'000);
  h.Record(500'000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 503'000u);
  EXPECT_EQ(h.max(), 500'000u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST_F(LifecycleTest, QuantilesAreExactToOneBucketWidth) {
  // Nanosecond latencies: 1000 samples spread over [10us, 1000us).
  std::vector<uint64_t> latencies;
  for (uint64_t i = 0; i < 1000; ++i) {
    latencies.push_back((10 + i * 99 / 100) * 1000);
  }
  ExpectQuantilesWithinOneBucket(latencies);
  // GEMM flop counts around 1e9 (2*m*k*n of a 1000x500x1000 product).
  std::vector<uint64_t> flops;
  for (uint64_t i = 0; i < 1000; ++i) {
    flops.push_back(uint64_t{1'000'000'000} + i * 7'919'017);
  }
  ExpectQuantilesWithinOneBucket(flops);
  // Unit-width buckets hold one integer each: quantiles are exact.
  Histogram small;
  for (uint64_t v = 2; v <= 11; ++v) small.Record(v);
  EXPECT_EQ(small.Quantile(0.0), 2.0);
  EXPECT_EQ(small.Quantile(0.5), 6.0);
  EXPECT_EQ(small.Quantile(1.0), 11.0);
}

TEST_F(LifecycleTest, DisabledGateRecordsNothing) {
  Histogram* h = MetricsRegistry::Get().GetHistogram(
      LifecycleHistogramName("gate", LifecycleStage::kArriveToCommit));
  SetEnabled(false);
  EXPECT_FALSE(LifecycleEnabled());
  h->Record(1'000'000);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->max(), 0u);
  SetEnabled(true);
  SetLifecycle(false);
  EXPECT_FALSE(LifecycleEnabled());
  SetLifecycle(true);
  EXPECT_TRUE(LifecycleEnabled());
  h->Record(1'000'000);
  EXPECT_EQ(h->count(), 1u);
}

TEST_F(LifecycleTest, ConcurrentRecordingLosesNoSamples) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  Histogram* h = MetricsRegistry::Get().GetHistogram(LifecycleHistogramName(
      "mt-campaign", LifecycleStage::kArriveToCommit));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h->Record(5'000 + (i & 1023));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  EXPECT_EQ(h->max(), 5'000u + 1023u);
  uint64_t per_thread_sum = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) {
    per_thread_sum += 5'000 + (i & 1023);
  }
  EXPECT_EQ(h->sum(), kThreads * per_thread_sum);
}

TEST_F(LifecycleTest, StageNamesMatchThePipelineOrder) {
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kDispatchToDeliver),
               "dispatch_deliver");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kDeliverToArrive),
               "deliver_arrive");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kArriveToCommit),
               "arrive_commit");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kCommitToObserve),
               "commit_observe");
}

TEST_F(LifecycleTest, ReportParsesWithAllStagesPerCampaign) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Histogram* deliver = registry.GetHistogram(LifecycleHistogramName(
      "json-camp", LifecycleStage::kDispatchToDeliver));
  Histogram* commit = registry.GetHistogram(LifecycleHistogramName(
      "json-camp", LifecycleStage::kArriveToCommit));
  for (uint64_t i = 0; i < 100; ++i) {
    deliver->Record(10'000 + i * 100);
    commit->Record(2'000);
  }

  const std::string report =
      LifecycleReportJson({"json-camp", "idle-camp"});
  JsonValue root;
  ASSERT_TRUE(MiniJsonParser::Parse(report, &root)) << report;
  const JsonValue& campaigns = root["campaigns"];
  ASSERT_TRUE(campaigns.is_array());
  ASSERT_EQ(campaigns.array.size(), 2u);
  EXPECT_EQ(campaigns.array[0]["name"].str, "json-camp");
  EXPECT_EQ(campaigns.array[1]["name"].str, "idle-camp");
  for (const JsonValue& campaign : campaigns.array) {
    for (LifecycleStage stage : kAllStages) {
      EXPECT_TRUE(campaign["stages"].Has(LifecycleStageName(stage)))
          << campaign["name"].str << " " << LifecycleStageName(stage);
    }
  }
  const JsonValue& stages = campaigns.array[0]["stages"];
  EXPECT_EQ(stages["dispatch_deliver"]["count"].number, 100.0);
  EXPECT_EQ(stages["dispatch_deliver"]["max"].number, 19'900.0);
  EXPECT_EQ(stages["arrive_commit"]["count"].number, 100.0);
  EXPECT_EQ(stages["arrive_commit"]["sum"].number, 200'000.0);
  EXPECT_EQ(stages["deliver_arrive"]["count"].number, 0.0);
  EXPECT_GT(stages["dispatch_deliver"]["p99"].number,
            stages["dispatch_deliver"]["p50"].number);
  EXPECT_EQ(stages["commit_observe"]["p50"].number, 0.0);
}

TEST_F(LifecycleTest, EmptyHistogramReadsZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  const HistogramSample s = HistogramSample::From(h);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

// Campaign names come from callers; a quote or backslash in one must not
// break either JSON export of its stage histograms.
TEST_F(LifecycleTest, NamesWithQuotesAndBackslashesStayParseable) {
  const std::string name = "we\"ird\\camp";
  const std::string metric =
      LifecycleHistogramName(name, LifecycleStage::kArriveToCommit);
  MetricsRegistry::Get().GetHistogram(metric)->Record(4'000);

  JsonValue snapshot;
  const std::string snapshot_json = MetricsRegistry::Get().Snapshot().ToJson();
  ASSERT_TRUE(MiniJsonParser::Parse(snapshot_json, &snapshot))
      << snapshot_json;
  EXPECT_EQ(snapshot["histograms"][metric]["count"].number, 1.0);

  JsonValue report;
  const std::string report_json = LifecycleReportJson({name});
  ASSERT_TRUE(MiniJsonParser::Parse(report_json, &report)) << report_json;
  ASSERT_EQ(report["campaigns"].array.size(), 1u);
  const JsonValue& campaign = report["campaigns"].array[0];
  EXPECT_EQ(campaign["name"].str, name);
  EXPECT_EQ(campaign["stages"]["arrive_commit"]["count"].number, 1.0);
}

}  // namespace
}  // namespace crowdrl::obs
