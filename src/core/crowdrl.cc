#include "core/crowdrl.h"

#include <utility>

#include "core/run_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace crowdrl::core {

CrowdRlFramework::CrowdRlFramework(CrowdRlConfig config)
    : config_(std::move(config)) {
  name_ = "CrowdRL";
  if (config_.random_task_selection) name_ += "-M1";
  if (config_.random_task_assignment) name_ += "-M2";
  if (config_.use_pm_inference) name_ += "-M3";
}

CrowdRlFramework::~CrowdRlFramework() = default;

const char* CrowdRlFramework::name() const { return name_.c_str(); }

Status CrowdRlFramework::SaveCheckpoint(const std::string& path) const {
  if (run_state_ == nullptr) {
    return Status::FailedPrecondition(
        "no in-progress run to checkpoint (SaveCheckpoint is valid after "
        "Run returned Interrupted)");
  }
  return run_state_->WriteSnapshot(path);
}

Status CrowdRlFramework::LoadCheckpoint(const std::string& path) {
  auto snapshot = std::make_unique<io::SnapshotStreamReader>();
  CROWDRL_RETURN_IF_ERROR(snapshot->Open(path));
  pending_restore_ = std::move(snapshot);
  return Status::Ok();
}

Status CrowdRlFramework::Run(const data::Dataset& dataset,
                             const std::vector<crowd::Annotator>& pool,
                             double budget, uint64_t seed,
                             LabellingResult* result) {
  CROWDRL_CHECK(result != nullptr);
  CROWDRL_RETURN_IF_ERROR(
      ValidateRunInputs(config_, dataset, pool, budget));

  // Observability: enable-only (never clobbers a process-wide enable done
  // elsewhere, e.g. by a bench harness instrumenting non-framework
  // stages). Everything below only reads clocks and bumps atomics, so
  // instrumented runs stay bit-identical to disabled ones.
  obs::ApplyOptions(config_.obs);
  obs::MetricsJsonlWriter metrics_writer;
  if (obs::Enabled() && !config_.obs.metrics_jsonl_path.empty()) {
    if (!metrics_writer.Open(config_.obs.metrics_jsonl_path)) {
      CROWDRL_LOG(Warning) << "cannot open metrics sink "
                           << config_.obs.metrics_jsonl_path
                           << "; per-iteration metrics disabled";
    }
  }
  auto export_trace = [&]() {
    if (config_.obs.trace_json_path.empty() || !obs::TracingEnabled()) {
      return;
    }
    if (!obs::TraceRecorder::Get().WriteChromeTrace(
            config_.obs.trace_json_path)) {
      CROWDRL_LOG(Warning) << "cannot write trace "
                           << config_.obs.trace_json_path;
    }
  };

  // Fresh deterministic setup; a pending checkpoint is applied on top.
  run_state_ =
      std::make_unique<RunState>(&config_, &dataset, &pool, budget, seed);
  RunState& rs = *run_state_;

  if (pending_restore_ == nullptr) {
    Status resumed = MaybeResumeFromCheckpointDir(&rs);
    if (!resumed.ok()) {
      run_state_.reset();
      return resumed;
    }
  } else {
    std::unique_ptr<io::SnapshotStreamReader> snapshot =
        std::move(pending_restore_);
    Status restored = rs.ApplyRestore(*snapshot);
    if (!restored.ok()) {
      run_state_.reset();
      return restored;
    }
  }

  CROWDRL_RETURN_IF_ERROR(rs.Bootstrap());

  // --- Main labelling loop (Algorithm 1). ---
  // Each round plans (enrich, observe the delayed reward, select), then
  // executes the planned pairs strictly in Commit order — the environment
  // samples answers from one RNG stream, so commit order is the
  // determinism contract — and finishes with truth inference and the
  // per-pair reward components for next round's observation.
  for (;;) {
    IterationPlan plan;
    rs.PlanIteration(/*connected=*/nullptr, /*observe_pending=*/true,
                     &plan);
    if (plan.stop) break;

    std::vector<bool> executed(plan.pairs.size(), false);
    {
      CROWDRL_TRACE_SPAN("framework.execute");
      bool stop_executing = false;
      for (size_t p = 0; p < plan.pairs.size() && !stop_executing; ++p) {
        bool ok = false;
        CROWDRL_RETURN_IF_ERROR(
            rs.ExecutePair(plan.pairs[p].first, plan.pairs[p].second, &ok,
                           &stop_executing));
        executed[p] = ok;
      }
    }

    CROWDRL_RETURN_IF_ERROR(rs.FinishIteration(plan, executed));

    if (metrics_writer.is_open()) {
      metrics_writer.WriteRecord(rs.iterations,
                                 obs::MetricsRegistry::Get().Snapshot());
    }
    CROWDRL_RETURN_IF_ERROR(rs.MaybeCheckpoint());
    if (config_.halt_after_iterations > 0 &&
        rs.iterations >= config_.halt_after_iterations) {
      // run_state_ stays alive so SaveCheckpoint can snapshot the halt
      // point; the next Run constructs a fresh RunState regardless.
      export_trace();
      return Status::Interrupted(StringPrintf(
          "halted after %zu labelling iterations as configured",
          rs.iterations));
    }
  }
  rs.ObserveFinalPending();

  CROWDRL_RETURN_IF_ERROR(rs.Finalize(result));
  last_q_parameters_ = rs.agent.q_network().FlatParameters();
  last_assignment_log_ = std::move(rs.assignment_log);
  run_state_.reset();
  export_trace();
  return Status::Ok();
}

std::vector<double> PretrainQNetwork(CrowdRlConfig config,
                                     const std::vector<PretrainTask>& tasks,
                                     uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < tasks.size(); ++i) {
    const PretrainTask& task = tasks[i];
    CROWDRL_CHECK(task.dataset != nullptr && task.pool != nullptr);
    CrowdRlFramework framework(config);
    LabellingResult ignored;
    Status s = framework.Run(*task.dataset, *task.pool, task.budget,
                             rng.Fork(i).seed(), &ignored);
    CROWDRL_CHECK(s.ok()) << "pretraining run failed: " << s.ToString();
    config.pretrained_q_params = framework.last_q_parameters();
  }
  return config.pretrained_q_params;
}

}  // namespace crowdrl::core
