// Health-watchdog contract tests, driven deterministically in manual
// mode (tick_micros = 0, every tick is an explicit EvaluateOnce): rule
// kinds fire and clear on the documented conditions, transitions write
// `crowdrl.health.*` gauges and flight-recorder events, inactive scopes
// read healthy, and preconditions suppress spurious verdicts.

#include "obs/watchdog.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace crowdrl::obs {
namespace {

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    MetricsRegistry::Get().ResetAll();
    FlightRecorder::Get().ResetForTesting();
    FlightRecorder::Get().Configure(256);
  }
  void TearDown() override {
    FlightRecorder::Get().ResetForTesting();
    MetricsRegistry::Get().ResetAll();
    SetEnabled(false);
  }

  static WatchdogOptions ManualOptions() {
    WatchdogOptions options;
    options.enabled = true;
    options.tick_micros = 0;  // Manual mode: EvaluateOnce drives ticks.
    return options;
  }

  static WatchdogVerdict FindVerdict(const HealthWatchdog& dog,
                                     const std::string& rule) {
    for (const WatchdogVerdict& v : dog.Verdicts()) {
      if (v.rule == rule) return v;
    }
    ADD_FAILURE() << "no verdict for rule " << rule;
    return {};
  }

  static size_t CountFlightEvents(FlightEventType type) {
    size_t n = 0;
    for (const FlightEventRecord& ev :
         FlightRecorder::Get().OrderedEvents()) {
      if (ev.type == static_cast<uint16_t>(type)) ++n;
    }
    return n;
  }
};

TEST_F(WatchdogTest, GaugeAboveFiresAndClearsWithHealthGauge) {
  Gauge* depth = MetricsRegistry::Get().GetGauge("test.wd.depth");
  WatchdogRule rule;
  rule.name = "deep_queue";
  rule.kind = WatchdogRule::Kind::kGaugeAbove;
  rule.metric = "test.wd.depth";
  rule.threshold = 10.0;
  rule.window_ticks = 2;

  HealthWatchdog dog;
  dog.Start(ManualOptions(),
            {{/*scope_name=*/"camp", /*scope=*/0, {rule}, nullptr}});
  Gauge* health =
      MetricsRegistry::Get().GetGauge("crowdrl.health.camp.deep_queue");

  depth->Set(50.0);
  dog.EvaluateOnce();  // Window not yet full: stays healthy.
  EXPECT_FALSE(FindVerdict(dog, "deep_queue").firing);
  dog.EvaluateOnce();  // Window full, value above threshold: fires.
  EXPECT_TRUE(FindVerdict(dog, "deep_queue").firing);
  EXPECT_EQ(health->value(), 1.0);
  EXPECT_EQ(dog.firings(), 1u);
  EXPECT_EQ(CountFlightEvents(FlightEventType::kWatchdogFiring), 1u);

  depth->Set(1.0);
  dog.EvaluateOnce();  // Back under threshold: clears.
  EXPECT_FALSE(FindVerdict(dog, "deep_queue").firing);
  EXPECT_EQ(health->value(), 0.0);
  EXPECT_EQ(dog.firings(), 1u);  // Firing count is transitions, not ticks.
  EXPECT_EQ(CountFlightEvents(FlightEventType::kWatchdogCleared), 1u);
  dog.Stop();
}

TEST_F(WatchdogTest, CounterStalledDetectsZeroProgress) {
  Counter* commits = MetricsRegistry::Get().GetCounter("test.wd.commits");
  WatchdogRule rule;
  rule.name = "no_commits";
  rule.kind = WatchdogRule::Kind::kCounterStalled;
  rule.metric = "test.wd.commits";
  rule.window_ticks = 3;

  HealthWatchdog dog;
  dog.Start(ManualOptions(), {{"camp", 0, {rule}, nullptr}});

  commits->Inc(5);
  for (int i = 0; i < 3; ++i) dog.EvaluateOnce();
  EXPECT_TRUE(FindVerdict(dog, "no_commits").firing);  // Flat for 3 ticks.

  commits->Inc(1);
  dog.EvaluateOnce();  // Progress within the window: clears.
  EXPECT_FALSE(FindVerdict(dog, "no_commits").firing);
  dog.Stop();
}

TEST_F(WatchdogTest, MonotoneRiseNeedsStrictGrowthEveryTick) {
  Gauge* depth = MetricsRegistry::Get().GetGauge("test.wd.backlog");
  WatchdogRule rule;
  rule.name = "backlog";
  rule.kind = WatchdogRule::Kind::kGaugeMonotoneRise;
  rule.metric = "test.wd.backlog";
  rule.window_ticks = 3;

  HealthWatchdog dog;
  dog.Start(ManualOptions(), {{"camp", 0, {rule}, nullptr}});

  // Monotone growth across the whole window fires.
  for (double v : {1.0, 2.0, 3.0}) {
    depth->Set(v);
    dog.EvaluateOnce();
  }
  EXPECT_TRUE(FindVerdict(dog, "backlog").firing);

  // A single dip anywhere in the window reads as draining: clears.
  depth->Set(2.0);
  dog.EvaluateOnce();
  EXPECT_FALSE(FindVerdict(dog, "backlog").firing);
  dog.Stop();
}

TEST_F(WatchdogTest, CounterRateAboveDetectsBursts) {
  Counter* fallbacks = MetricsRegistry::Get().GetCounter("test.wd.gate");
  WatchdogRule rule;
  rule.name = "gate_burst";
  rule.kind = WatchdogRule::Kind::kCounterRateAbove;
  rule.metric = "test.wd.gate";
  rule.threshold = 4.0;
  rule.window_ticks = 2;

  HealthWatchdog dog;
  dog.Start(ManualOptions(), {{"camp", 0, {rule}, nullptr}});

  dog.EvaluateOnce();
  fallbacks->Inc(2);
  dog.EvaluateOnce();  // Delta 2 <= 4: healthy.
  EXPECT_FALSE(FindVerdict(dog, "gate_burst").firing);
  fallbacks->Inc(10);
  dog.EvaluateOnce();  // Delta 10 > 4: burst.
  EXPECT_TRUE(FindVerdict(dog, "gate_burst").firing);
  dog.Stop();
}

TEST_F(WatchdogTest, PreconditionSuppressesStarvationWithEmptyInbox) {
  MetricsRegistry::Get().GetCounter("test.wd.delivered");
  Gauge* inbox = MetricsRegistry::Get().GetGauge("test.wd.inbox");
  WatchdogRule rule;
  rule.name = "starvation";
  rule.kind = WatchdogRule::Kind::kCounterStalled;
  rule.metric = "test.wd.delivered";
  rule.window_ticks = 2;
  rule.precondition_gauge = "test.wd.inbox";
  rule.precondition_above = 0.0;

  HealthWatchdog dog;
  dog.Start(ManualOptions(), {{"camp", 0, {rule}, nullptr}});

  // Deliveries flat but nothing queued: not starvation, just idle.
  for (int i = 0; i < 3; ++i) dog.EvaluateOnce();
  EXPECT_FALSE(FindVerdict(dog, "starvation").firing);

  // Same flat counter with items actually waiting: fires.
  inbox->Set(7.0);
  dog.EvaluateOnce();
  EXPECT_TRUE(FindVerdict(dog, "starvation").firing);
  dog.Stop();
}

TEST_F(WatchdogTest, InactiveScopeReadsHealthyAndResetsItsWindow) {
  Gauge* depth = MetricsRegistry::Get().GetGauge("test.wd.inactive");
  depth->Set(100.0);
  WatchdogRule rule;
  rule.name = "deep";
  rule.kind = WatchdogRule::Kind::kGaugeAbove;
  rule.metric = "test.wd.inactive";
  rule.threshold = 10.0;
  rule.window_ticks = 2;

  bool active = false;
  WatchdogRuleSet set;
  set.scope_name = "camp";
  set.rules = {rule};
  set.active = [&active] { return active; };

  HealthWatchdog dog;
  dog.Start(ManualOptions(), {set});

  for (int i = 0; i < 4; ++i) dog.EvaluateOnce();
  EXPECT_FALSE(FindVerdict(dog, "deep").firing);  // Finished != stalled.

  active = true;
  dog.EvaluateOnce();  // Window restarted on revival: one tick is not
  EXPECT_FALSE(FindVerdict(dog, "deep").firing);  // enough to fire...
  dog.EvaluateOnce();
  EXPECT_TRUE(FindVerdict(dog, "deep").firing);  // ...two are.
  dog.Stop();
}

// A snapshot taken right after a scope goes inactive must not report the
// verdicts of its last tick. With an hour-long tick the monitor thread
// evaluates once at start and then sleeps, so nothing clears the verdict
// but Verdicts() itself.
TEST_F(WatchdogTest, InactiveScopeReadsHealthyBeforeTheNextTick) {
  Gauge* depth = MetricsRegistry::Get().GetGauge("test.wd.completed");
  depth->Set(100.0);
  WatchdogRule rule;
  rule.name = "deep";
  rule.kind = WatchdogRule::Kind::kGaugeAbove;
  rule.metric = "test.wd.completed";
  rule.threshold = 10.0;
  rule.window_ticks = 2;

  std::atomic<bool> active{true};
  WatchdogRuleSet set;
  set.scope_name = "camp";
  set.rules = {rule};
  set.active = [&active] { return active.load(); };

  WatchdogOptions options;
  options.enabled = true;
  options.tick_micros = int64_t{3'600'000'000};
  HealthWatchdog dog;
  dog.Start(options, {set});
  // The thread's first tick samples the gauge (its value shows in the
  // verdict) and leaves the window one sample short of firing. After it
  // the thread sleeps, so the second tick is ours.
  for (int i = 0; i < 5000 && FindVerdict(dog, "deep").value != 100.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(FindVerdict(dog, "deep").value, 100.0);
  EXPECT_FALSE(FindVerdict(dog, "deep").firing);
  dog.EvaluateOnce();
  ASSERT_TRUE(FindVerdict(dog, "deep").firing);

  active.store(false);  // The campaign completes; no tick follows.
  EXPECT_FALSE(FindVerdict(dog, "deep").firing);
  active.store(true);   // The stored verdict is untouched until a tick.
  EXPECT_TRUE(FindVerdict(dog, "deep").firing);
  dog.Stop();
}

TEST_F(WatchdogTest, StartIsNoOpWhenDisabled) {
  HealthWatchdog dog;
  WatchdogOptions off;  // enabled = false.
  dog.Start(off, {{"camp", 0, DefaultCampaignRules("camp"), nullptr}});
  EXPECT_FALSE(dog.running());
  EXPECT_TRUE(dog.Verdicts().empty());
}

TEST_F(WatchdogTest, DefaultCampaignRulesCoverTheDocumentedStallModes) {
  const std::vector<WatchdogRule> rules = DefaultCampaignRules("video");
  std::vector<std::string> names;
  for (const WatchdogRule& r : rules) names.push_back(r.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"ti_stall", "ingest_backlog",
                                      "no_commits", "inbox_starvation",
                                      "gate_fallback_burst"}));
  // Campaign-scoped rules read the campaign's own metrics.
  for (const WatchdogRule& r : rules) {
    if (r.name == "gate_fallback_burst") continue;  // Process-wide metric.
    EXPECT_EQ(r.metric.rfind("crowdrl.serve.video.", 0), 0u) << r.metric;
  }
}

TEST_F(WatchdogTest, BackgroundThreadStartsAndStopsCleanly) {
  Gauge* depth = MetricsRegistry::Get().GetGauge("test.wd.thread");
  depth->Set(100.0);
  WatchdogRule rule;
  rule.name = "deep";
  rule.kind = WatchdogRule::Kind::kGaugeAbove;
  rule.metric = "test.wd.thread";
  rule.threshold = 10.0;
  rule.window_ticks = 2;

  WatchdogOptions options;
  options.enabled = true;
  options.tick_micros = 500;
  HealthWatchdog dog;
  dog.Start(options, {{"camp", 0, {rule}, nullptr}});
  EXPECT_TRUE(dog.running());
  // The monitor thread fills the window on its own within a few ticks.
  for (int i = 0; i < 2000 && dog.firings() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(dog.firings(), 1u);
  dog.Stop();
  EXPECT_FALSE(dog.running());
  dog.Stop();  // Idempotent.
}

}  // namespace
}  // namespace crowdrl::obs
