#ifndef CROWDRL_OBS_WATCHDOG_H_
#define CROWDRL_OBS_WATCHDOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

/// \file
/// \brief Health watchdog: a background monitor thread evaluating
/// declarative rules over registry metrics (DESIGN.md §15).
///
/// The watchdog turns the stall modes the service already measures into
/// detections: TI stall growth, monotonically growing ingest backlog,
/// zero commits while serving, annotator inbox starvation, repeated
/// exactness-gate fallbacks. Each tick it samples the named metrics,
/// evaluates every rule over a sliding window of samples, and on a
/// verdict transition (healthy → firing or back) appends a
/// flight-recorder event and flips the rule's `crowdrl.health.*` gauge.
/// Verdicts never feed back into scheduling — the watchdog observes; a
/// future transport front-end serves its snapshot.
///
/// Rules reference metrics *by name*, so the watchdog knows nothing
/// about the service: the serve layer builds per-campaign rule sets over
/// its own `crowdrl.serve.<name>.*` metrics and hands them over together
/// with an `active` callback that suppresses rules for finished
/// campaigns (a completed campaign is not "stalled").
///
/// Monitoring is pull-only: the thread reads atomics the hot paths
/// already maintain and writes gauges nothing else reads, so a run with
/// the watchdog on stays byte-identical to one without (bridge-tested).

namespace crowdrl::obs {

/// One declarative health rule over a registry metric.
struct WatchdogRule {
  enum class Kind {
    /// Gauge value > threshold at the last sample.
    kGaugeAbove,
    /// Gauge grew by more than `threshold` across the window (for
    /// cumulative gauges like ti_stall_us: bounds stall *growth*).
    kGaugeRiseAbove,
    /// Gauge strictly non-decreasing across the whole window AND grew
    /// overall (ingest queue depth growing monotonically).
    kGaugeMonotoneRise,
    /// Counter delta across the window == 0 (zero commits over N ticks).
    kCounterStalled,
    /// Counter delta across the window > threshold (gate-fallback burst).
    kCounterRateAbove,
  };

  std::string name;    ///< Rule name; metric suffix of the health gauge.
  Kind kind = Kind::kGaugeAbove;
  std::string metric;  ///< Full registry metric (counter or gauge) name.
  double threshold = 0.0;
  /// Samples in the evaluation window (>= 2 for windowed kinds). A rule
  /// stays healthy until the window has filled once.
  int window_ticks = 4;
  /// Optional precondition: the rule can fire only while this gauge is
  /// > precondition_above at the last sample (e.g. inbox starvation only
  /// counts while items are actually queued).
  std::string precondition_gauge;
  double precondition_above = 0.0;
};

/// A named group of rules sharing one flight-recorder scope, typically
/// one campaign.
struct WatchdogRuleSet {
  std::string scope_name;         ///< Health gauges: crowdrl.health.<scope_name>.<rule>.
  uint16_t scope = 0;             ///< FlightRecorder scope ordinal.
  std::vector<WatchdogRule> rules;
  /// When set and returning false, every rule of the set reads healthy
  /// and its window resets (campaign finished / not yet serving).
  std::function<bool()> active;
};

struct WatchdogVerdict {
  std::string scope_name;
  std::string rule;
  bool firing = false;
  double value = 0.0;      ///< Metric value / delta that decided the verdict.
  uint64_t since_ns = 0;   ///< NowNs() of the last transition.
};

struct WatchdogOptions {
  bool enabled = false;
  /// Monitor tick period. Every rule window is in units of this tick.
  /// Non-positive = manual mode: no monitor thread is spawned and the
  /// owner drives ticks through EvaluateOnce (deterministic tests).
  int64_t tick_micros = 50'000;
};

/// \brief The monitor thread. Start/Stop are owner-thread-only; Verdicts
/// is thread-safe (mutex-guarded copy).
class HealthWatchdog {
 public:
  HealthWatchdog();
  ~HealthWatchdog();

  HealthWatchdog(const HealthWatchdog&) = delete;
  HealthWatchdog& operator=(const HealthWatchdog&) = delete;

  /// Starts the monitor thread over `rule_sets`. No-op when already
  /// running or when options.enabled is false.
  void Start(const WatchdogOptions& options,
             std::vector<WatchdogRuleSet> rule_sets);

  /// Evaluates every rule once against fresh samples. Called by the
  /// monitor thread each tick; exposed for deterministic tests.
  void EvaluateOnce();

  /// Stops and joins the monitor thread. Idempotent.
  void Stop();

  bool running() const;

  /// Current verdict of every rule (one entry per rule, firing or not).
  /// Every rule of a scope whose `active` reads false at the call reports
  /// not firing, without waiting for the next tick to clear it.
  std::vector<WatchdogVerdict> Verdicts() const;

  /// Total healthy→firing transitions since Start (all rules).
  uint64_t firings() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The serve layer's default rule set for one campaign, over the
/// `crowdrl.serve.<campaign>.*` metrics (declared here so the thresholds
/// are documented in one place; the service fills in scope + active).
std::vector<WatchdogRule> DefaultCampaignRules(
    const std::string& campaign_name);

}  // namespace crowdrl::obs

#endif  // CROWDRL_OBS_WATCHDOG_H_
