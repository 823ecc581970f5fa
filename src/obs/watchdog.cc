#include "obs/watchdog.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

namespace crowdrl::obs {

namespace {

std::string HealthGaugeName(const std::string& scope,
                            const std::string& rule) {
  return "crowdrl.health." + scope + "." + rule;
}

}  // namespace

struct HealthWatchdog::Impl {
  struct RuleState {
    WatchdogRule rule;
    size_t set_index = 0;
    Gauge* health_gauge = nullptr;
    // Sample sources, resolved once at Start (names create-on-miss, so a
    // rule over a not-yet-registered metric reads 0 until it exists).
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Gauge* precondition = nullptr;
    std::deque<double> window;
    bool firing = false;
    uint64_t since_ns = 0;
    double last_value = 0.0;
  };

  WatchdogOptions options;
  std::vector<WatchdogRuleSet> sets;
  std::vector<RuleState> rules;

  mutable std::mutex mu;
  std::condition_variable cv;
  std::thread thread;
  bool running = false;
  bool stopping = false;
  std::atomic<uint64_t> firings{0};

  void Loop() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stopping) {
      lock.unlock();
      EvaluateLocked();
      lock.lock();
      cv.wait_for(lock, std::chrono::microseconds(options.tick_micros),
                  [this] { return stopping; });
    }
  }

  // Samples + evaluates every rule. The sampling state (window) is only
  // touched here and in Start/Stop (thread joined), so it needs no lock;
  // the verdict fields Verdicts() reads (firing, since_ns, last_value)
  // are written under `mu`.
  void EvaluateLocked() {
    for (RuleState& state : rules) {
      const WatchdogRuleSet& set = sets[state.set_index];
      if (set.active && !set.active()) {
        // Inactive scope: read healthy, restart the window on revival.
        state.window.clear();
        Transition(state, set, /*firing=*/false, state.last_value);
        continue;
      }
      const double sample =
          state.counter != nullptr
              ? static_cast<double>(state.counter->value())
              : state.gauge->value();
      state.window.push_back(sample);
      const size_t window =
          static_cast<size_t>(std::max(2, state.rule.window_ticks));
      while (state.window.size() > window) state.window.pop_front();

      bool firing = false;
      double value = sample;
      if (state.window.size() == window) {
        const double first = state.window.front();
        const double delta = sample - first;
        switch (state.rule.kind) {
          case WatchdogRule::Kind::kGaugeAbove:
            firing = sample > state.rule.threshold;
            break;
          case WatchdogRule::Kind::kGaugeRiseAbove:
            firing = delta > state.rule.threshold;
            value = delta;
            break;
          case WatchdogRule::Kind::kGaugeMonotoneRise: {
            bool monotone = true;
            for (size_t i = 1; i < state.window.size(); ++i) {
              if (state.window[i] < state.window[i - 1]) {
                monotone = false;
                break;
              }
            }
            firing = monotone && delta > 0.0;
            value = delta;
            break;
          }
          case WatchdogRule::Kind::kCounterStalled:
            firing = delta == 0.0;
            value = delta;
            break;
          case WatchdogRule::Kind::kCounterRateAbove:
            firing = delta > state.rule.threshold;
            value = delta;
            break;
        }
        if (firing && state.precondition != nullptr &&
            state.precondition->value() <= state.rule.precondition_above) {
          firing = false;
        }
      }
      Transition(state, set, firing, value);
    }
  }

  void Transition(RuleState& state, const WatchdogRuleSet& set, bool firing,
                  double value) {
    std::lock_guard<std::mutex> lock(mu);
    state.last_value = value;
    if (firing == state.firing) return;
    state.firing = firing;
    state.since_ns = NowNs();
    state.health_gauge->Set(firing ? 1.0 : 0.0);
    if (firing) firings.fetch_add(1, std::memory_order_relaxed);
    RecordFlightEvent(
        firing ? FlightEventType::kWatchdogFiring
               : FlightEventType::kWatchdogCleared,
        set.scope, static_cast<uint64_t>(&state - rules.data()),
        std::bit_cast<uint64_t>(value));
  }
};

HealthWatchdog::HealthWatchdog() : impl_(std::make_unique<Impl>()) {}

HealthWatchdog::~HealthWatchdog() { Stop(); }

void HealthWatchdog::Start(const WatchdogOptions& options,
                           std::vector<WatchdogRuleSet> rule_sets) {
  if (!options.enabled || impl_->running) return;
  impl_->options = options;
  impl_->sets = std::move(rule_sets);
  impl_->rules.clear();
  auto& registry = MetricsRegistry::Get();
  for (size_t s = 0; s < impl_->sets.size(); ++s) {
    const WatchdogRuleSet& set = impl_->sets[s];
    for (const WatchdogRule& rule : set.rules) {
      Impl::RuleState state;
      state.rule = rule;
      state.set_index = s;
      state.health_gauge =
          registry.GetGauge(HealthGaugeName(set.scope_name, rule.name));
      state.health_gauge->Set(0.0);
      const bool counter_kind =
          rule.kind == WatchdogRule::Kind::kCounterStalled ||
          rule.kind == WatchdogRule::Kind::kCounterRateAbove;
      if (counter_kind) {
        state.counter = registry.GetCounter(rule.metric);
      } else {
        state.gauge = registry.GetGauge(rule.metric);
      }
      if (!rule.precondition_gauge.empty()) {
        state.precondition = registry.GetGauge(rule.precondition_gauge);
      }
      impl_->rules.push_back(std::move(state));
    }
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->running = true;
    impl_->stopping = false;
  }
  // Manual mode (tests): a non-positive tick means no monitor thread —
  // the owner drives every tick through EvaluateOnce deterministically.
  if (options.tick_micros > 0) {
    impl_->thread = std::thread([this] { impl_->Loop(); });
  }
}

void HealthWatchdog::EvaluateOnce() { impl_->EvaluateLocked(); }

void HealthWatchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!impl_->running) return;
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->running = false;
}

bool HealthWatchdog::running() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->running;
}

std::vector<WatchdogVerdict> HealthWatchdog::Verdicts() const {
  // An inactive scope reads healthy now, not at the monitor's next tick:
  // a snapshot taken right after a campaign completes must not report
  // verdicts older than the completion. `active` is sampled before taking
  // the lock so no callback runs under it.
  std::vector<bool> set_active(impl_->sets.size(), true);
  for (size_t s = 0; s < impl_->sets.size(); ++s) {
    const WatchdogRuleSet& set = impl_->sets[s];
    set_active[s] = !set.active || set.active();
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<WatchdogVerdict> out;
  out.reserve(impl_->rules.size());
  for (const Impl::RuleState& state : impl_->rules) {
    WatchdogVerdict verdict;
    verdict.scope_name = impl_->sets[state.set_index].scope_name;
    verdict.rule = state.rule.name;
    verdict.firing = state.firing && set_active[state.set_index];
    verdict.value = state.last_value;
    verdict.since_ns = state.since_ns;
    out.push_back(std::move(verdict));
  }
  return out;
}

uint64_t HealthWatchdog::firings() const {
  return impl_->firings.load(std::memory_order_relaxed);
}

std::vector<WatchdogRule> DefaultCampaignRules(
    const std::string& campaign_name) {
  const std::string prefix = "crowdrl.serve." + campaign_name + ".";
  std::vector<WatchdogRule> rules;

  // TI stall growth: the pump spent > 250 ms of the last window stalled
  // behind a truth-inference swap (the gauge is cumulative stall time).
  WatchdogRule ti_stall;
  ti_stall.name = "ti_stall";
  ti_stall.kind = WatchdogRule::Kind::kGaugeRiseAbove;
  ti_stall.metric = prefix + "ti_stall_us";
  ti_stall.threshold = 250'000.0;
  ti_stall.window_ticks = 6;
  rules.push_back(std::move(ti_stall));

  // Ingest backpressure: arrival queue depth rising monotonically across
  // the window — the pump is not keeping up with arrivals.
  WatchdogRule backlog;
  backlog.name = "ingest_backlog";
  backlog.kind = WatchdogRule::Kind::kGaugeMonotoneRise;
  backlog.metric = prefix + "queue_depth";
  backlog.window_ticks = 6;
  rules.push_back(std::move(backlog));

  // Liveness: zero committed answers over the window while serving.
  WatchdogRule no_commits;
  no_commits.name = "no_commits";
  no_commits.kind = WatchdogRule::Kind::kCounterStalled;
  no_commits.metric = prefix + "answers";
  no_commits.window_ticks = 12;
  rules.push_back(std::move(no_commits));

  // Inbox starvation: work queued in annotator inboxes but none
  // delivered over the window — clients connected but not pulling.
  WatchdogRule starvation;
  starvation.name = "inbox_starvation";
  starvation.kind = WatchdogRule::Kind::kCounterStalled;
  starvation.metric = prefix + "delivered";
  starvation.window_ticks = 12;
  starvation.precondition_gauge = prefix + "inbox_depth";
  starvation.precondition_above = 0.0;
  rules.push_back(std::move(starvation));

  // Selection health: exactness-gate fallbacks bursting (pruner bounds
  // collapsing under drift; process-wide metric, scoped per campaign for
  // attribution of who was serving while it burned).
  WatchdogRule gate;
  gate.name = "gate_fallback_burst";
  gate.kind = WatchdogRule::Kind::kCounterRateAbove;
  gate.metric = "crowdrl.prune.gate_fallbacks";
  gate.threshold = 8.0;
  gate.window_ticks = 6;
  rules.push_back(std::move(gate));

  return rules;
}

}  // namespace crowdrl::obs
