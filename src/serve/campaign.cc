#include "serve/campaign.h"

#include <algorithm>
#include <utility>

#include "core/reward.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace crowdrl::serve {

namespace {

std::string MetricName(const std::string& campaign, const char* suffix) {
  return "crowdrl.serve." + campaign + "." + suffix;
}

}  // namespace

std::string LifecycleHistogramName(const std::string& campaign,
                                   obs::LifecycleStage stage) {
  return MetricName(campaign, "lifecycle.") + obs::LifecycleStageName(stage);
}

std::string LifecycleStagesJson(const std::string& campaign) {
  auto& registry = obs::MetricsRegistry::Get();
  std::string out = "{";
  for (size_t s = 0; s < obs::kNumLifecycleStages; ++s) {
    const auto stage = static_cast<obs::LifecycleStage>(s);
    const std::string name = LifecycleHistogramName(campaign, stage);
    if (s > 0) out.push_back(',');
    obs::AppendJsonString(obs::LifecycleStageName(stage), &out);
    out.push_back(':');
    out += obs::HistogramSample::From(*registry.GetHistogram(name)).ToJson();
  }
  out.push_back('}');
  return out;
}

std::string LifecycleReportJson(const std::vector<std::string>& campaigns) {
  std::string out = "{\"campaigns\":[";
  for (size_t c = 0; c < campaigns.size(); ++c) {
    if (c > 0) out.push_back(',');
    out += "{\"name\":";
    obs::AppendJsonString(campaigns[c], &out);
    out += ",\"stages\":" + LifecycleStagesJson(campaigns[c]) + "}";
  }
  out += "]}";
  return out;
}

Campaign::Campaign(CampaignOptions options, const data::Dataset* dataset,
                   const std::vector<crowd::Annotator>* pool, double budget,
                   uint64_t seed, EventHub* hub, InferenceWorker* ti_worker)
    : options_(std::move(options)),
      dataset_(dataset),
      pool_(pool),
      budget_(budget),
      seed_(seed),
      hub_(hub),
      ti_worker_(ti_worker),
      ingest_(hub),
      sessions_(pool->size(), hub) {
  CROWDRL_CHECK(dataset != nullptr && pool != nullptr && hub != nullptr);
  CROWDRL_CHECK(options_.synchronous_inference || ti_worker != nullptr)
      << "asynchronous inference needs an InferenceWorker";
  auto& registry = obs::MetricsRegistry::Get();
  const std::string& name = options_.name;
  metric_answers_ = registry.GetCounter(MetricName(name, "answers"));
  metric_rounds_ = registry.GetCounter(MetricName(name, "rounds"));
  metric_abandoned_ = registry.GetCounter(MetricName(name, "abandoned"));
  metric_rejected_ =
      registry.GetCounter(MetricName(name, "rejected_answers"));
  metric_ti_swaps_ = registry.GetCounter(MetricName(name, "ti_swaps"));
  metric_delivered_ = registry.GetCounter(MetricName(name, "delivered"));
  metric_queue_depth_ = registry.GetGauge(MetricName(name, "queue_depth"));
  metric_inbox_depth_ = registry.GetGauge(MetricName(name, "inbox_depth"));
  metric_connected_ = registry.GetGauge(MetricName(name, "connected"));
  metric_ti_stall_us_ =
      registry.GetGauge(MetricName(name, "ti_stall_us"));
  for (size_t s = 0; s < obs::kNumLifecycleStages; ++s) {
    metric_stages_[s] = registry.GetHistogram(
        LifecycleHistogramName(name, static_cast<obs::LifecycleStage>(s)));
  }
}

Campaign::~Campaign() {
  if (ti_inflight_) ti_future_.wait();
}

Status Campaign::Start() {
  CROWDRL_CHECK(state() == State::kNew) << "campaign already started";
  CROWDRL_RETURN_IF_ERROR(
      core::ValidateRunInputs(options_.config, *dataset_, *pool_, budget_));
  obs::ApplyOptions(options_.config.obs);
  // Scope registration is unconditional (idempotent, just a name slot);
  // whether events actually record stays gated on FlightEnabled().
  flight_scope_ = obs::FlightRecorder::Get().RegisterScope(options_.name);
  sessions_.set_flight_scope(flight_scope_);
  if (obs::Enabled() && !options_.config.obs.metrics_jsonl_path.empty()) {
    if (!metrics_writer_.Open(options_.config.obs.metrics_jsonl_path)) {
      CROWDRL_LOG(Warning) << "cannot open metrics sink "
                           << options_.config.obs.metrics_jsonl_path
                           << "; per-round metrics disabled";
    }
  }
  rs_ = std::make_unique<core::RunState>(&options_.config, dataset_, pool_,
                                         budget_, seed_);
  CROWDRL_RETURN_IF_ERROR(core::MaybeResumeFromCheckpointDir(rs_.get()));
  // The bootstrap phase (an alpha fraction labelled by k annotators each)
  // runs synchronously: it models the offline warm-up before the service
  // opens, not live traffic.
  CROWDRL_RETURN_IF_ERROR(rs_->Bootstrap());
  applied_revision_ = rs_->env.answers_revision();
  snapshot_revision_ = applied_revision_;
  state_ = State::kServing;
  obs::RecordFlightEvent(obs::FlightEventType::kCampaignStart, flight_scope_);
  return Status::Ok();
}

void Campaign::Fail(Status status) {
  CROWDRL_LOG(Warning) << "campaign " << options_.name
                       << " failed: " << status.ToString();
  status_ = std::move(status);
  state_ = State::kFailed;
  obs::RecordFlightEvent(obs::FlightEventType::kCampaignFailed,
                         flight_scope_);
  metrics_writer_.Flush();
  hub_->Notify();
}

bool Campaign::PumpStep() {
  if (state_ != State::kServing) return false;
  bool progress = ProcessSessionEvents();
  progress |= CommitArrivals();
  if (state_ != State::kServing) return progress;
  if (!options_.synchronous_inference) {
    progress |= MaybeApplyInference();
    if (state_ != State::kServing) return progress;
  }
  if (round_active_ && reorder_.remaining() == 0) {
    FinishRound();
    progress = true;
  }
  if (state_ != State::kServing) return progress;
  if (!round_active_) progress |= MaybePlanRound();
  metric_queue_depth_->Set(static_cast<double>(ingest_.ApproxDepth()));
  if (obs::Enabled()) {
    metric_inbox_depth_->Set(static_cast<double>(sessions_.TotalQueued()));
    metric_connected_->Set(static_cast<double>(sessions_.num_connected()));
    metric_delivered_->Inc(sessions_.delivered_count() -
                           metric_delivered_->value());
  }
  return progress;
}

void Campaign::NoteAbandoned(uint64_t seq) {
  reorder_.Abandon(seq);
  ++abandoned_items_;
  metric_abandoned_->Inc();
  obs::RecordFlightEvent(obs::FlightEventType::kItemAbandoned, flight_scope_,
                         seq);
}

bool Campaign::ProcessSessionEvents() {
  bool progress = false;
  for (uint64_t seq : sessions_.TakeAbandonedSeqs()) {
    NoteAbandoned(seq);
    progress = true;
  }
  return progress;
}

bool Campaign::Mismatched(const CompletedAnswer& answer) const {
  if (!round_active_ || answer.seq < reorder_.first_seq()) return false;
  const uint64_t p = answer.seq - reorder_.first_seq();
  if (p >= plan_.pairs.size()) return false;
  return plan_.pairs[p].first != answer.object ||
         plan_.pairs[p].second != answer.annotator;
}

bool Campaign::CommitArrivals() {
  bool progress = false;
  for (const CompletedAnswer& answer : ingest_.Drain()) {
    // The planned pair is what commits, so a completion must name it: a
    // client answering someone else's seq is dropped, and the slot stays
    // open for the genuine completion.
    if (Mismatched(answer)) {
      ++rejected_answers_;
      metric_rejected_->Inc();
      continue;
    }
    // Out-of-range / already-resolved seqs are late echoes of cancelled
    // work; dropping them here is what makes cancellation safe.
    if (reorder_.Offer(answer)) progress = true;
  }
  if (!round_active_) return progress;
  CompletedAnswer answer;
  bool abandoned = false;
  while (reorder_.PopReady(&answer, &abandoned)) {
    progress = true;
    const size_t p = static_cast<size_t>(answer.seq - reorder_.first_seq());
    CROWDRL_CHECK(p < plan_.pairs.size());
    if (abandoned || stop_executing_) {
      executed_[p] = false;
      continue;
    }
    bool ok = false;
    bool out_of_budget = false;
    Status s = rs_->ExecutePair(plan_.pairs[p].first, plan_.pairs[p].second,
                                &ok, &out_of_budget);
    if (!s.ok()) {
      Fail(std::move(s));
      return true;
    }
    executed_[p] = ok;
    if (out_of_budget) {
      // The budget refused this pair; the rest of the round is moot.
      // Undelivered work is cancelled (seqs come back as abandoned);
      // in-flight completions still arrive and are skipped above.
      obs::RecordFlightEvent(obs::FlightEventType::kBudgetExhausted,
                             flight_scope_, answer.seq);
      stop_executing_ = true;
      sessions_.CancelAllQueued();
      for (uint64_t seq : sessions_.TakeAbandonedSeqs()) {
        NoteAbandoned(seq);
      }
      continue;
    }
    ++answers_committed_;
    metric_answers_->Inc();
    const uint64_t now = obs::NowNs();
    last_commit_ns_.store(now, std::memory_order_relaxed);
    if (obs::LifecycleEnabled()) {
      // The first three stage edges resolve here, entirely from stamps
      // the item carried (monotonic clock ⇒ the deltas are well-formed
      // whenever the stamps exist; a 0 stamp means tracing turned on
      // mid-flight — skip the item rather than record a wild delta).
      if (answer.deliver_ns >= answer.dispatch_ns &&
          answer.arrive_ns >= answer.deliver_ns && answer.deliver_ns != 0 &&
          answer.arrive_ns != 0) {
        RecordStage(obs::LifecycleStage::kDispatchToDeliver,
                    answer.deliver_ns - answer.dispatch_ns);
        RecordStage(obs::LifecycleStage::kDeliverToArrive,
                    answer.arrive_ns - answer.deliver_ns);
        RecordStage(obs::LifecycleStage::kArriveToCommit,
                    now - answer.arrive_ns);
      }
      // The observe edge closes when the reward covering this commit is
      // handed to the agent (next plan's pending pass in sync mode, the
      // round's revision-gated observation in async mode).
      round_commit_ns_.push_back(now);
    }
  }
  return progress;
}

void Campaign::RecordObserveLatencies(std::vector<uint64_t>* stamps) {
  if (stamps->empty()) return;
  if (obs::LifecycleEnabled()) {
    const uint64_t now = obs::NowNs();
    for (uint64_t t : *stamps) {
      RecordStage(obs::LifecycleStage::kCommitToObserve,
                  now >= t ? now - t : 0);
    }
  }
  stamps->clear();
}

void Campaign::FinishRound() {
  CROWDRL_CHECK(round_active_);
  round_active_ = false;
  if (options_.synchronous_inference) {
    // The round's rewards become pending; they are observed by the next
    // PlanIteration (or ObserveFinalPending), which closes the
    // commit→observe edge for these stamps.
    observe_wait_ns_.insert(observe_wait_ns_.end(), round_commit_ns_.begin(),
                            round_commit_ns_.end());
    round_commit_ns_.clear();
    Status s = rs_->FinishIteration(plan_, executed_);
    if (!s.ok()) {
      Fail(std::move(s));
      return;
    }
  } else {
    rs_->AdvanceIteration(plan_, executed_);
    PendingRound round;
    round.plan = std::move(plan_);
    round.executed = std::move(executed_);
    round.completed_revision = rs_->env.answers_revision();
    round.commit_ns = std::move(round_commit_ns_);
    round_commit_ns_.clear();
    unobserved_.push_back(std::move(round));
    MaybeStartInference();
  }
  ++rounds_completed_;
  metric_rounds_->Inc();
  WriteMetricsRecord();
  Status s = rs_->MaybeCheckpoint();
  if (!s.ok()) {
    Fail(std::move(s));
    return;
  }
}

void Campaign::WriteMetricsRecord() {
  if (!metrics_writer_.is_open()) return;
  metrics_writer_.WriteRecord(rs_->iterations,
                              obs::MetricsRegistry::Get().Snapshot());
}

void Campaign::MaybeStartInference() {
  if (ti_inflight_) return;
  if (rs_->env.answers_revision() <= snapshot_revision_) {
    return;  // Nothing new to infer over.
  }
  ti_job_ = std::make_unique<core::TruthInferenceJob>();
  {
    CROWDRL_TRACE_SPAN("serve.ti_snapshot");
    rs_->SnapshotInference(ti_job_.get());
  }
  snapshot_revision_ = ti_job_->base_revision;
  ti_done_ = std::make_shared<std::atomic<bool>>(false);
  obs::RecordFlightEvent(obs::FlightEventType::kTiSnapshot, flight_scope_,
                         static_cast<uint64_t>(snapshot_revision_));
  core::TruthInferenceJob* job = ti_job_.get();
  std::shared_ptr<std::atomic<bool>> done = ti_done_;
  EventHub* hub = hub_;
  ti_inflight_ = true;
  ti_future_ = ti_worker_->Submit([job, done, hub] {
    core::RunState::ExecuteInferenceJob(job);
    done->store(true, std::memory_order_release);
    hub->Notify();
  });
}

bool Campaign::MaybeApplyInference() {
  if (!ti_inflight_ || !ti_done_->load(std::memory_order_acquire)) {
    return false;
  }
  ti_future_.get();
  ti_inflight_ = false;
  Status s;
  {
    CROWDRL_TRACE_SPAN("serve.ti_apply");
    s = rs_->ApplyInference(ti_job_.get());
  }
  if (!s.ok()) {
    Fail(std::move(s));
    return true;
  }
  // The revision barrier: selection from here on sees the new labels,
  // qualities, and phi posteriors as one consistent world (the bumped
  // class_probs_version makes the agent's ScoreCache refresh its
  // classifier-derived feature columns on the next Sync).
  applied_revision_ = ti_job_->base_revision;
  ti_job_.reset();
  ++ti_swaps_;
  metric_ti_swaps_->Inc();
  obs::RecordFlightEvent(obs::FlightEventType::kTiSwap, flight_scope_,
                         static_cast<uint64_t>(applied_revision_),
                         static_cast<uint64_t>(ti_swaps_.load()));
  ObserveReadyRounds();
  MaybeStartInference();
  return true;
}

void Campaign::ObserveReadyRounds() {
  while (!unobserved_.empty()) {
    PendingRound& round = unobserved_.front();
    if (!round.has_shared) break;
    if (applied_revision_ < round.completed_revision) break;
    // Rewards plus the agent's observation, DQN training included.
    CROWDRL_TRACE_SPAN("serve.observe");
    std::vector<double> rewards =
        rs_->ComputePairRewards(round.plan.pairs, round.executed);
    for (double& r : rewards) r += round.shared;
    std::vector<bool> affordable = rs_->env.AffordableAnnotators();
    std::vector<bool> mask = sessions_.ConnectedMask();
    for (size_t j = 0; j < affordable.size(); ++j) {
      affordable[j] = affordable[j] && mask[j];
    }
    rs_->agent.ObserveOldestPairs(round.plan.pairs.size(), rewards,
                                  rs_->MakeView(), affordable,
                                  /*terminal=*/false);
    RecordObserveLatencies(&round.commit_ns);
    unobserved_.pop_front();
  }
}

void Campaign::WaitAndApplyInference() {
  if (!ti_inflight_) return;
  ti_future_.wait();
  MaybeApplyInference();
}

bool Campaign::MaybePlanRound() {
  CROWDRL_CHECK(!round_active_);
  std::vector<bool> mask = sessions_.ConnectedMask();
  if (!rs_->state.AllLabelled() && rs_->env.AnyAffordable()) {
    // Planning against an empty (or fully unaffordable) connected pool
    // would read as "no candidates" and wrongly end the campaign; wait
    // for a reconnect instead. Never triggers with a never-disconnecting
    // pool, so the bridge path is unaffected.
    std::vector<bool> affordable = rs_->env.AffordableAnnotators();
    bool any_live = false;
    for (size_t j = 0; j < affordable.size(); ++j) {
      if (affordable[j] && mask[j]) {
        any_live = true;
        break;
      }
    }
    if (!any_live) return false;
  }
  if (!options_.synchronous_inference &&
      unobserved_.size() >= options_.max_unobserved_rounds &&
      ti_inflight_) {
    // Selection has run far enough ahead of truth inference; stall until
    // the next swap. The stall clock feeds the bench's TI-swap stall
    // metric.
    if (stall_started_ns_ == 0) stall_started_ns_ = obs::NowNs();
    return false;
  }
  if (stall_started_ns_ != 0) {
    const uint64_t stalled = obs::NowNs() - stall_started_ns_;
    ti_stall_ns_ += stalled;
    metric_ti_stall_us_->Set(static_cast<double>(ti_stall_ns_) / 1000.0);
    stall_started_ns_ = 0;
  }

  core::IterationPlan plan;
  rs_->PlanIteration(&mask, /*observe_pending=*/true, &plan);
  // Sync mode: the pending rewards (previous round) were just observed.
  RecordObserveLatencies(&observe_wait_ns_);
  if (plan.ran && !unobserved_.empty() && !unobserved_.back().has_shared) {
    // This plan's enrichment reveals the previous round's shared r_phi
    // term (the batch loop's one-iteration reward delay).
    unobserved_.back().shared = core::SharedEnrichmentReward(
        options_.config.reward, plan.enriched, plan.unlabelled_before);
    unobserved_.back().has_shared = true;
    ObserveReadyRounds();
  }
  if (plan.stop) {
    FinishCampaign();
    return true;
  }

  plan_ = std::move(plan);
  executed_.assign(plan_.pairs.size(), false);
  stop_executing_ = false;
  reorder_.BeginRange(next_seq_, plan_.pairs.size());
  const uint64_t now = obs::NowNs();
  for (size_t p = 0; p < plan_.pairs.size(); ++p) {
    WorkItem item;
    item.seq = next_seq_ + static_cast<uint64_t>(p);
    item.object = plan_.pairs[p].first;
    item.annotator = plan_.pairs[p].second;
    item.dispatch_ns = now;
    sessions_.Dispatch(item);
  }
  next_seq_ += static_cast<uint64_t>(plan_.pairs.size());
  round_active_ = true;
  return true;
}

bool Campaign::SettleInference() {
  WaitAndApplyInference();
  if (state_ != State::kServing) return false;
  if (rs_->env.answers_revision() > applied_revision_) {
    Status s = rs_->RunInferenceSync();
    if (!s.ok()) {
      Fail(std::move(s));
      return false;
    }
    applied_revision_ = rs_->env.answers_revision();
    ObserveReadyRounds();
  }
  return true;
}

void Campaign::ObserveOldestRound(bool terminal) {
  CROWDRL_TRACE_SPAN("serve.observe");
  PendingRound& round = unobserved_.front();
  std::vector<double> rewards =
      rs_->ComputePairRewards(round.plan.pairs, round.executed);
  if (round.has_shared) {
    for (double& r : rewards) r += round.shared;
  }
  rs_->agent.ObserveOldestPairs(round.plan.pairs.size(), rewards,
                                rs_->MakeView(),
                                rs_->env.AffordableAnnotators(), terminal);
  RecordObserveLatencies(&round.commit_ns);
  unobserved_.pop_front();
}

void Campaign::FinishCampaign() {
  if (!options_.synchronous_inference) {
    // Settle asynchronous inference before the terminal observations,
    // then observe the remaining rounds FIFO (the newest may have no
    // shared term when the terminal plan stopped on the iteration cap),
    // the last one terminal — mirroring the batch loop's final
    // observation.
    if (!SettleInference()) return;
    while (!unobserved_.empty()) ObserveOldestRound(unobserved_.size() == 1);
  }
  rs_->ObserveFinalPending();
  RecordObserveLatencies(&observe_wait_ns_);
  Status s = rs_->Finalize(&result_);
  if (!s.ok()) {
    Fail(std::move(s));
    return;
  }
  // Flush-on-completion: the metrics sink ends exactly at the final
  // round even if the process dies before the service shuts down.
  WriteMetricsRecord();
  metrics_writer_.Flush();
  state_ = State::kComplete;
  obs::RecordFlightEvent(obs::FlightEventType::kCampaignComplete,
                         flight_scope_);
  hub_->Notify();
}

Status Campaign::Drain() {
  if (state_ != State::kServing) return Status::Ok();
  obs::RecordFlightEvent(obs::FlightEventType::kDrain, flight_scope_);
  // Flush everything that already arrived, then abandon what is still
  // out: queued inbox items and in-flight work are dropped (their late
  // completions, if any, bounce off the resolved reorder slots).
  ProcessSessionEvents();
  CommitArrivals();
  if (state_ != State::kServing) return status_;
  if (round_active_) {
    sessions_.CancelAllQueued();
    ProcessSessionEvents();
    for (uint64_t seq : reorder_.UnresolvedSeqs()) {
      NoteAbandoned(seq);
    }
    CommitArrivals();
    if (state_ != State::kServing) return status_;
    CROWDRL_CHECK(reorder_.remaining() == 0);
    FinishRound();
    if (state_ != State::kServing) return status_;
  }
  if (!options_.synchronous_inference) {
    // Align the async backlog back to the batch-compatible checkpoint
    // form: all but the newest round observed now (their shared terms
    // are known), the newest folded into RunState::pending_pair_rewards
    // so a resumed run observes it exactly like an interrupted batch run
    // would.
    if (!SettleInference()) return status_;
    while (unobserved_.size() > 1) ObserveOldestRound(/*terminal=*/false);
    if (!unobserved_.empty()) {
      PendingRound& round = unobserved_.front();
      rs_->pending_pair_rewards =
          rs_->ComputePairRewards(round.plan.pairs, round.executed);
      rs_->has_pending = true;
      // This round's rewards will be observed by a future resumed run, not
      // this process — its observe edge is dropped, not fabricated.
      unobserved_.pop_front();
    }
  }
  Status s = rs_->WriteCheckpointNow();
  if (!s.ok()) {
    Fail(s);
    return s;
  }
  // A drained campaign still owes the sink its final state: emit one last
  // record so the JSONL's tail reflects post-drain values (counters,
  // lifecycle histograms), then close.
  WriteMetricsRecord();
  metrics_writer_.Flush();
  metrics_writer_.Close();
  state_ = State::kStopped;
  hub_->Notify();
  return Status::Ok();
}

const std::vector<core::AssignmentRecord>& Campaign::assignment_log() const {
  CROWDRL_CHECK(rs_ != nullptr) << "campaign was never started";
  return rs_->assignment_log;
}

}  // namespace crowdrl::serve
