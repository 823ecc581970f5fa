#ifndef CROWDRL_SERVE_CAMPAIGN_H_
#define CROWDRL_SERVE_CAMPAIGN_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/run_state.h"
#include "obs/flight_recorder.h"
#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "serve/annotator_session.h"
#include "serve/answer_ingest.h"
#include "serve/inference_worker.h"

namespace crowdrl::serve {

/// Per-campaign configuration on top of the core run config.
struct CampaignOptions {
  /// Metric-name component: per-campaign metrics are registered as
  /// crowdrl.serve.<name>.*.
  std::string name = "campaign";
  core::CrowdRlConfig config;
  /// True: truth inference runs on the pump thread at the end of every
  /// round, exactly like the batch loop — a single-campaign run with a
  /// never-disconnecting pool is then bit-identical to
  /// CrowdRlFramework::Run (the determinism bridge). False: TI — EM, phi's
  /// retraining and its class posteriors — runs asynchronously on a lane
  /// of the service's InferenceWorker over a copy-on-write snapshot while
  /// selection keeps serving, and its result is swapped in at a revision
  /// barrier.
  bool synchronous_inference = true;
  /// Asynchronous mode: how many rounds selection may run ahead of the
  /// last applied truth inference before the pump stalls the campaign
  /// (bounds both reward-signal staleness and the agent's pending-
  /// transition backlog).
  size_t max_unobserved_rounds = 2;
};

/// \brief One live labelling run driven by events instead of a loop.
///
/// A campaign owns the run's full state (core::RunState), an ingest queue
/// for out-of-order answer arrivals, and a session registry of
/// connected annotators. The service's scheduler pump repeatedly calls
/// PumpStep(), which advances a round state machine:
///
///   plan (RunState::PlanIteration over the connected pool)
///     → dispatch each planned pair to its annotator's inbox, tagged
///       with a global sequence number
///     → annotator drivers RequestWork / Push completions from their
///       own threads, in any order
///     → the pump commits completions back in ascending sequence order
///       (SequenceReorderBuffer), asking the environment for the actual
///       answer at commit time — commit order, not arrival order, is
///       the determinism contract
///     → round complete: truth inference + rewards (synchronous mode),
///       or snapshot TI on an InferenceWorker lane (asynchronous mode),
///       swapped in by a later pass; at most one job per campaign is in
///       flight.
///
/// Everything except AnswerIngestQueue/AnnotatorSessionRegistry access
/// happens on the single pump thread; a Campaign must not be pumped from
/// two threads.
class Campaign {
 public:
  enum class State { kNew, kServing, kComplete, kStopped, kFailed };

  /// `hub` (wake-ups) is borrowed and required; `ti_worker` is borrowed
  /// and may be null when `options.synchronous_inference` is true.
  /// Dataset and pool are borrowed for the campaign's lifetime.
  Campaign(CampaignOptions options, const data::Dataset* dataset,
           const std::vector<crowd::Annotator>* pool, double budget,
           uint64_t seed, EventHub* hub, InferenceWorker* ti_worker);
  ~Campaign();

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  /// Validates inputs, builds the RunState (resuming from the newest
  /// checkpoint when config.resume is set), and runs the bootstrap
  /// phase. The campaign is kServing afterwards.
  Status Start();

  /// One scheduler pass: apply session events, commit arrived answers,
  /// fold in finished background inference, finish / plan rounds.
  /// Returns true when any progress was made (the service pump sleeps on
  /// the EventHub when a full pass over all campaigns is idle).
  bool PumpStep();

  /// Graceful shutdown of a serving campaign: flushes the ingest queue,
  /// abandons work still out with annotators, finishes the current round
  /// with what arrived, aligns asynchronous-inference state back to the
  /// batch-compatible pending-reward form, writes a final rotating
  /// checkpoint, and flushes the metrics sink. A later campaign with
  /// config.resume picks up from that checkpoint.
  Status Drain();

  /// Thread-safe (atomic): HealthSnapshot reads it off-pump.
  State state() const { return state_.load(std::memory_order_acquire); }
  bool done() const {
    const State s = state();
    return s == State::kComplete || s == State::kFailed ||
           s == State::kStopped;
  }
  /// Failure reason when state() == kFailed; Ok otherwise.
  const Status& status() const { return status_; }
  /// Valid once state() == kComplete.
  const core::LabellingResult& result() const { return result_; }

  const std::string& name() const { return options_.name; }
  AnnotatorSessionRegistry& sessions() { return sessions_; }
  AnswerIngestQueue& ingest() { return ingest_; }
  /// Full execution-attempt log (bridge test; valid while the campaign
  /// lives, including after completion).
  const std::vector<core::AssignmentRecord>& assignment_log() const;
  const core::RunState& run_state() const { return *rs_; }

  // Serving statistics. Counters are relaxed atomics updated only by the
  // pump thread, so they are exact there and merely fresh-ish from any
  // other thread (HealthSnapshot / watchdog active callbacks).
  size_t answers_committed() const { return answers_committed_; }
  size_t rounds_completed() const { return rounds_completed_; }
  size_t ti_swaps() const { return ti_swaps_; }
  uint64_t ti_stall_ns() const { return ti_stall_ns_; }
  size_t abandoned_items() const { return abandoned_items_; }
  /// Completions dropped because their (object, annotator) is not the
  /// pair dispatched under their seq: another client's seq, or a forged
  /// one. The genuine completion still commits.
  size_t rejected_answers() const { return rejected_answers_; }
  /// obs::NowNs() of the most recent committed answer (0 before the
  /// first); the liveness signal of HealthSnapshot.
  uint64_t last_commit_ns() const { return last_commit_ns_; }

  /// Flight-recorder scope ordinal of this campaign (0 until Start).
  uint16_t flight_scope() const { return flight_scope_; }
  /// The registry histogram of one lifecycle stage edge, in nanoseconds
  /// (LifecycleHistogramName; recorded only while lifecycle tracing is
  /// enabled).
  const obs::Histogram& lifecycle(obs::LifecycleStage stage) const {
    return *metric_stages_[static_cast<size_t>(stage)];
  }

 private:
  /// One finished-but-unobserved round (asynchronous mode): rewards wait
  /// until a truth inference covering the round's answers has been
  /// applied and the next round's enrichment revealed the shared term.
  struct PendingRound {
    core::IterationPlan plan;
    std::vector<bool> executed;
    /// env.answers_revision() when the round finished.
    size_t completed_revision = 0;
    double shared = 0.0;
    bool has_shared = false;
    /// Commit stamps of the round's answers, awaiting the observe edge
    /// (filled only while lifecycle tracing is on).
    std::vector<uint64_t> commit_ns;
  };

  void Fail(Status status);
  bool ProcessSessionEvents();
  bool CommitArrivals();
  bool MaybeApplyInference();
  void ObserveReadyRounds();
  void MaybeStartInference();
  void WaitAndApplyInference();
  /// Settles asynchronous inference before a campaign ends or drains:
  /// waits out an in-flight snapshot job, runs one synchronous round if
  /// answers arrived after that snapshot, and observes the rounds that
  /// became ready. False once the campaign has left kServing.
  bool SettleInference();
  /// Observes the oldest unobserved round against the current view (its
  /// shared term added when known) and drops it from the backlog.
  void ObserveOldestRound(bool terminal);
  void FinishRound();
  bool MaybePlanRound();
  void FinishCampaign();
  void WriteMetricsRecord();
  /// Resolves one abandoned seq (reorder + stats + flight event).
  void NoteAbandoned(uint64_t seq);
  /// True when `answer`'s seq lies in the active round and its (object,
  /// annotator) differs from the pair dispatched under that seq.
  bool Mismatched(const CompletedAnswer& answer) const;
  /// Records commit→observe latencies for `stamps` (observed now) and
  /// clears it.
  void RecordObserveLatencies(std::vector<uint64_t>* stamps);
  void RecordStage(obs::LifecycleStage stage, uint64_t ns) {
    metric_stages_[static_cast<size_t>(stage)]->Record(ns);
  }

  CampaignOptions options_;
  const data::Dataset* dataset_;
  const std::vector<crowd::Annotator>* pool_;
  double budget_;
  uint64_t seed_;
  EventHub* hub_;
  InferenceWorker* ti_worker_;

  std::atomic<State> state_{State::kNew};
  Status status_;
  core::LabellingResult result_;

  std::unique_ptr<core::RunState> rs_;
  AnswerIngestQueue ingest_;
  AnnotatorSessionRegistry sessions_;
  SequenceReorderBuffer reorder_;
  uint64_t next_seq_ = 0;

  // Active-round state (valid while round_active_).
  bool round_active_ = false;
  core::IterationPlan plan_;
  std::vector<bool> executed_;
  bool stop_executing_ = false;

  // Asynchronous-inference state.
  std::deque<PendingRound> unobserved_;
  std::unique_ptr<core::TruthInferenceJob> ti_job_;
  std::future<void> ti_future_;
  std::shared_ptr<std::atomic<bool>> ti_done_;
  bool ti_inflight_ = false;
  /// answers_revision() of the newest applied inference (selection serves
  /// truth at this revision; newer answers wait for the next swap).
  size_t applied_revision_ = 0;
  size_t snapshot_revision_ = 0;
  uint64_t stall_started_ns_ = 0;

  // Serving statistics (atomic so HealthSnapshot can read them off-pump;
  // written only by the pump thread).
  std::atomic<size_t> answers_committed_{0};
  std::atomic<size_t> rounds_completed_{0};
  std::atomic<size_t> ti_swaps_{0};
  std::atomic<uint64_t> ti_stall_ns_{0};
  std::atomic<size_t> abandoned_items_{0};
  std::atomic<size_t> rejected_answers_{0};
  std::atomic<uint64_t> last_commit_ns_{0};

  // Answer-lifecycle trace state (pump-thread-only; populated only while
  // lifecycle tracing is enabled).
  /// Commit stamps of the active round (moved into the PendingRound /
  /// observe-wait list when the round finishes).
  std::vector<uint64_t> round_commit_ns_;
  /// Sync mode: stamps of rounds whose rewards wait for the next
  /// PlanIteration's pending-observe pass.
  std::vector<uint64_t> observe_wait_ns_;

  uint16_t flight_scope_ = 0;

  // Per-campaign metrics (crowdrl.serve.<name>.*).
  obs::Counter* metric_answers_;
  obs::Counter* metric_rounds_;
  obs::Counter* metric_abandoned_;
  obs::Counter* metric_rejected_;
  obs::Counter* metric_ti_swaps_;
  obs::Counter* metric_delivered_;
  obs::Gauge* metric_queue_depth_;
  obs::Gauge* metric_inbox_depth_;
  obs::Gauge* metric_connected_;
  obs::Gauge* metric_ti_stall_us_;
  /// lifecycle.<stage> latency histograms (nanoseconds), per stage.
  std::array<obs::Histogram*, obs::kNumLifecycleStages> metric_stages_;
  obs::MetricsJsonlWriter metrics_writer_;
};

/// Registry name of a campaign's lifecycle stage histogram:
/// crowdrl.serve.<campaign>.lifecycle.<stage>, in nanoseconds.
std::string LifecycleHistogramName(const std::string& campaign,
                                   obs::LifecycleStage stage);

/// One campaign's stage breakdown read from its registry histograms:
/// {"dispatch_deliver":<summary>,...,"commit_observe":<summary>}, each
/// summary an obs::HistogramSample::ToJson object in nanoseconds.
std::string LifecycleStagesJson(const std::string& campaign);

/// The answer-lifecycle report of the named campaigns:
/// {"campaigns":[{"name":...,"stages":LifecycleStagesJson(name)},...]}.
std::string LifecycleReportJson(const std::vector<std::string>& campaigns);

}  // namespace crowdrl::serve

#endif  // CROWDRL_SERVE_CAMPAIGN_H_
