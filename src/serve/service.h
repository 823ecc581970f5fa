#ifndef CROWDRL_SERVE_SERVICE_H_
#define CROWDRL_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/watchdog.h"
#include "serve/answer_ingest.h"
#include "serve/campaign.h"
#include "serve/inference_worker.h"
#include "util/thread_pool.h"

namespace crowdrl::serve {

struct ServiceOptions {
  /// Size of the featurization ThreadPool shared by every campaign's
  /// agent (DqnAgentOptions::shared_pool; <= 1: each agent keeps its own
  /// per-config pool / serial path). It only builds Score()'s dense
  /// feature matrix (see DqnAgentOptions::threads), so campaigns, which
  /// select and bootstrap on the factorized head, leave it idle. The
  /// scheduler pumps campaigns sequentially on one thread, so the shared
  /// pool only ever has one caller (a concurrent one would run its range
  /// inline, see util/thread_pool.h).
  int shared_threads = 1;
  /// How long an idle scheduler pass sleeps on the event hub before
  /// re-polling (annotator pushes and finished TI jobs wake it earlier).
  int64_t idle_wait_micros = 2000;
  /// Health watchdog over the default per-campaign rule set
  /// (obs::DefaultCampaignRules). Off by default; observes only — its
  /// verdicts never feed back into scheduling.
  obs::WatchdogOptions watchdog;
  /// When non-empty, the first campaign failure observed by the pump
  /// dumps the flight recorder here (io::DumpFlightRecorder), once per
  /// service lifetime.
  std::string flight_dump_on_failure;
};

/// Thread-safe point-in-time health view of one campaign (all fields are
/// relaxed-atomic reads of pump-maintained state).
struct CampaignHealth {
  std::string name;
  Campaign::State state = Campaign::State::kNew;
  uint64_t answers = 0;
  uint64_t rounds = 0;
  uint64_t abandoned = 0;
  uint64_t ti_swaps = 0;
  uint64_t ti_stall_ns = 0;
  uint64_t last_commit_ns = 0;  ///< 0 until the first commit.
};

/// The service's introspection surface (a future transport front-end
/// serves this verbatim): per-campaign progress plus the watchdog's
/// current verdicts.
struct ServiceHealth {
  std::vector<CampaignHealth> campaigns;
  std::vector<obs::WatchdogVerdict> verdicts;  ///< Empty if watchdog off.
  uint64_t watchdog_firings = 0;
};

/// \brief Multi-campaign labelling scheduler (the serve-mode entry point).
///
/// Owns the shared infrastructure — one EventHub for wake-ups, one
/// InferenceWorker whose on-demand lanes run asynchronous campaigns'
/// truth-inference jobs side by side (at most one lane per asynchronous
/// campaign, capped at one less than the hardware threads; none while
/// every campaign is synchronous), optionally one selection ThreadPool —
/// and multiplexes any number of campaigns over them with a round-robin
/// pump. Each pass gives every live campaign one PumpStep(); when a full
/// pass makes no progress the pump parks on the hub until an annotator
/// pushes an answer, a session connects or disconnects, or a background
/// inference finishes.
///
/// Threading contract: AddCampaign / StartAll / PumpOnce /
/// RunUntilComplete / Shutdown are pump-thread-only. Annotator drivers
/// call Campaign::sessions().RequestWork() and
/// Campaign::ingest().Push() from their own threads.
class LabellingService {
 public:
  explicit LabellingService(ServiceOptions options = {});
  ~LabellingService();

  LabellingService(const LabellingService&) = delete;
  LabellingService& operator=(const LabellingService&) = delete;

  /// Thread-safe health view: campaign states/progress + watchdog
  /// verdicts. Callable from any thread while the service lives.
  ServiceHealth HealthSnapshot() const;

  /// Registers a campaign (kNew; call StartAll — or Start() on the
  /// returned campaign — before pumping). When the service owns a shared
  /// selection pool it is injected into the campaign's agent config. The
  /// returned pointer stays valid for the service's lifetime.
  Campaign* AddCampaign(CampaignOptions options, const data::Dataset* dataset,
                        const std::vector<crowd::Annotator>* pool,
                        double budget, uint64_t seed);

  /// Starts every kNew campaign. Returns the first failure (remaining
  /// campaigns still start; a failed campaign reports done()).
  Status StartAll();

  /// One scheduler pass over all live campaigns; true if any progressed.
  bool PumpOnce();

  /// Pumps until every campaign reports done(), sleeping on the event hub
  /// between idle passes. Returns the first failed campaign's status.
  Status RunUntilComplete();

  /// Drains every still-serving campaign (final checkpoint + metrics
  /// flush) and stops the inference worker's lanes. Idempotent; also run
  /// by the destructor.
  Status Shutdown();

  EventHub& hub() { return hub_; }
  size_t num_campaigns() const { return campaigns_.size(); }
  Campaign& campaign(size_t i) { return *campaigns_[i]; }

 private:
  ServiceOptions options_;
  EventHub hub_;
  // Declared before campaigns_: campaigns are destroyed first (they wait
  // on in-flight TI futures), then the worker's lanes join.
  InferenceWorker ti_worker_;
  std::shared_ptr<ThreadPool> shared_pool_;
  std::vector<std::unique_ptr<Campaign>> campaigns_;
  obs::HealthWatchdog watchdog_;
  bool failure_dumped_ = false;
  bool shut_down_ = false;
};

}  // namespace crowdrl::serve

#endif  // CROWDRL_SERVE_SERVICE_H_
