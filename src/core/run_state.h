#ifndef CROWDRL_CORE_RUN_STATE_H_
#define CROWDRL_CORE_RUN_STATE_H_

#include <memory>
#include <utility>
#include <vector>

#include "classifier/mlp_classifier.h"
#include "core/config.h"
#include "core/environment.h"
#include "core/framework.h"
#include "crowd/annotator.h"
#include "crowd/answer_log.h"
#include "data/dataset.h"
#include "inference/joint_inference.h"
#include "inference/pm.h"
#include "io/snapshot.h"
#include "rl/dqn_agent.h"
#include "util/random.h"
#include "util/status.h"

namespace crowdrl::core {

/// One (object, annotator) execution attempt, in Commit order, with the
/// iteration it belonged to and whether the budget actually paid for it.
/// The log is what the determinism bridge test compares between the batch
/// driver and the event-driven service: two runs that agree on it asked
/// the same humans the same questions in the same order.
struct AssignmentRecord {
  size_t iteration = 0;
  int object = 0;
  int annotator = 0;
  bool executed = false;

  friend bool operator==(const AssignmentRecord& a,
                         const AssignmentRecord& b) {
    return a.iteration == b.iteration && a.object == b.object &&
           a.annotator == b.annotator && a.executed == b.executed;
  }
};

/// The planning half of one Algorithm 1 iteration: enrichment ran, the
/// pending reward (if any) was observed, and the agent selected a batch.
/// What remains — executing the pairs and folding the answers back in —
/// is the driver's job, which is exactly the part the labelling service
/// spreads over annotator sessions instead of a synchronous loop.
struct IterationPlan {
  size_t t = 0;
  /// The run is over (terminal state, empty selection, or iteration cap);
  /// no pairs to execute. When set with `ran == true` the terminal
  /// bookkeeping (pending-reward observation) already happened.
  bool stop = false;
  /// False only when the plan stopped on the iteration cap before any
  /// stage ran (the batch loop's `t < max_iterations` exit).
  bool ran = false;
  size_t unlabelled_before = 0;
  size_t enriched = 0;
  /// Affordability mask the selection saw (already intersected with the
  /// connected-annotator mask when one was given).
  std::vector<bool> affordable;
  std::vector<rl::Assignment> assignments;
  /// (object, annotator) pairs flattened in Commit order — the exact
  /// sequence RequestAnswer must be called in for bit-identity with the
  /// batch loop.
  std::vector<std::pair<int, int>> pairs;
};

/// \brief A self-contained truth-inference job over copy-on-write
/// snapshots, runnable on a background worker while selection keeps
/// serving from the live state.
///
/// Everything the EM round reads is copied at snapshot time (the CSR
/// AnswerLog and phi are plain-vector value types, so the copy IS the
/// snapshot); `features` is borrowed from the immutable dataset. The job
/// computes everything that is a function of its phi — the EM round (or
/// the PM ablation's inference and hard-label fit) and phi's class
/// posteriors over every object — so folding it back on the pump thread
/// (RunState::ApplyInference, the revision barrier) is a swap. The worker
/// only ever touches this struct, so the live RunState needs no locks.
struct TruthInferenceJob {
  // --- Snapshot (filled by SnapshotInference, read-only afterwards). ---
  /// Owned copies — AnswerLog and MlpClassifier have no empty state, so
  /// both live behind pointers until the snapshot fills them.
  std::unique_ptr<crowd::AnswerLog> answers;
  std::vector<int> objects;
  std::unique_ptr<classifier::MlpClassifier> phi;
  std::vector<crowd::AnnotatorType> types;
  const Matrix* features = nullptr;
  int num_classes = 0;
  bool use_pm = false;
  inference::JointInferenceOptions joint_options;
  inference::PmOptions pm_options;
  /// env.answers_revision() at snapshot time; answers logged after this
  /// revision are not in the job and wait for the next round.
  size_t base_revision = 0;

  // --- Outcome (filled by ExecuteInferenceJob). ---
  inference::InferenceResult result;
  /// The retrained phi's PredictProbsBatch(*features).
  Matrix class_probs;
  Status status;
};

/// \brief Every mutable piece of one labelling run, decomposed into the
/// stages of Algorithm 1 so different drivers can sequence them.
///
/// Construction reproduces the deterministic setup (seed forks, agent
/// episode, priors); checkpoints are applied on top of a freshly
/// constructed RunState, which is why a resumed run must be launched with
/// identical inputs.
///
/// Two drivers exist: the synchronous batch loop in
/// `CrowdRlFramework::Run` (plan → execute pairs in order → finish), and
/// the event-driven `serve::Campaign` pump, which executes the same pairs
/// as out-of-order annotator completions committed back in sequence order
/// and may defer truth inference to a background snapshot job. Because
/// answer *sampling* happens inside Environment::RequestAnswer (one RNG
/// stream, order-dependent), the commit order — not the arrival order —
/// is what determinism hangs on.
///
/// Not thread-safe: exactly one thread may drive a RunState at a time.
struct RunState {
  RunState(const CrowdRlConfig* config_in, const data::Dataset* dataset_in,
           const std::vector<crowd::Annotator>* pool_in, double budget_in,
           uint64_t seed_in);

  // Borrowed run inputs; must outlive the RunState.
  const CrowdRlConfig* config;
  const data::Dataset* dataset;
  const std::vector<crowd::Annotator>* pool;

  // Run identity, validated against a checkpoint's meta on restore.
  size_t n;
  int num_classes;
  size_t num_annotators;
  double budget;
  uint64_t seed;
  int batch_objects;

  Environment env;
  LabelState state;
  classifier::MlpClassifier phi;
  rl::DqnAgent agent;
  Rng local;

  std::vector<crowd::AnnotatorType> types;
  std::vector<bool> is_expert;
  std::vector<double> qualities;
  /// phi's class posteriors over all objects. Invariant: whenever phi
  /// changes, class_probs is refreshed to phi.PredictProbsBatch(features)
  /// before anything reads it (every inference step predicts it right
  /// after its fit and folds both in together; ApplyRestore recomputes it
  /// after a restore), and have_probs == phi.is_trained().
  /// Enrichment and Finalize therefore read phi's predictions from here
  /// instead of running phi again. Not serialized: it is a deterministic
  /// function of the restored phi and is recomputed on restore.
  Matrix class_probs;
  bool have_probs = false;
  /// Bumped every time class_probs is refreshed; plumbed into the
  /// StateView so the agent's ScoreCache only recomputes the classifier
  /// feature columns when phi's beliefs actually changed. Not serialized
  /// (a version mismatch after restore just means one extra refresh).
  size_t class_probs_version = 0;
  double last_log_likelihood = 0.0;

  // Loop progress.
  bool bootstrapped = false;
  size_t next_t = 0;
  size_t iterations = 0;
  std::vector<double> pending_pair_rewards;
  bool has_pending = false;

  /// Every execution attempt of the run, in order. Not serialized — it is
  /// diagnostic, not state the loop reads back.
  std::vector<AssignmentRecord> assignment_log;

  // --- Stages. ---

  /// Labels an alpha fraction with k annotators each and infers their
  /// truths (Algorithm 1 line 1). No-op when a restored checkpoint
  /// already carries its outcome.
  Status Bootstrap();

  /// Runs the front half of iteration `next_t`: iteration-cap check,
  /// enrichment, terminal/refinement handling, the delayed observation of
  /// the previous batch's reward (when `observe_pending`; the service
  /// keeps async rounds in its own FIFO instead), and batch selection.
  /// `connected` (optional) masks the affordable annotators down to the
  /// currently-connected pool before selection sees them.
  void PlanIteration(const std::vector<bool>* connected,
                     bool observe_pending, IterationPlan* plan);

  /// Requests one planned answer from the environment. Out-of-budget is
  /// not an error: `*executed` stays false, `*out_of_budget` is set, and
  /// the driver must stop executing the remainder of the plan (matching
  /// the batch loop's stop-on-first-refusal).
  Status ExecutePair(int object, int annotator, bool* executed,
                     bool* out_of_budget);

  /// Back half of a synchronous iteration: truth inference, per-pair
  /// reward components for the executed plan, and AdvanceIteration.
  Status FinishIteration(const IterationPlan& plan,
                         const std::vector<bool>& executed);

  /// Iteration bookkeeping alone (assignment log, next_t, budget gauge) —
  /// the async-TI path, where inference and rewards happen later against
  /// a snapshot.
  void AdvanceIteration(const IterationPlan& plan,
                        const std::vector<bool>& executed);

  /// Per-pair reward components (mu * agreement + eta * cost) for an
  /// executed plan, from the *current* inferred labels. Unexecuted pairs
  /// carry no signal (0.0). The shared lambda * r_phi term is added by
  /// the driver once the next iteration's enrichment is observable.
  std::vector<double> ComputePairRewards(
      const std::vector<std::pair<int, int>>& pairs,
      const std::vector<bool>& executed) const;

  /// Observes a still-pending reward after the loop exited via the
  /// iteration cap or an empty candidate set (no shared term — the
  /// enrichment it would measure never ran). No-op when nothing pends.
  void ObserveFinalPending();

  /// Fills every remaining label (classifier re-rating + fallback) and
  /// exports the result (Algorithm 1's output).
  Status Finalize(LabellingResult* result);

  // --- Truth inference. ---

  /// Synchronous truth inference over every answered object; retrains phi
  /// (the joint model retrains it internally, the PM ablation trains it
  /// on the hard labels afterwards per Algorithm 1 line 5).
  Status RunInferenceSync();

  /// Copies everything a background EM round needs into `job`.
  void SnapshotInference(TruthInferenceJob* job) const;

  /// Runs `job` against its snapshots: the same infer → fit → predict
  /// step as RunInferenceSync, so the two produce bit-identical labels,
  /// qualities, log-likelihood, phi and class_probs. Static and
  /// self-contained: safe to call on a worker thread while the owning
  /// RunState keeps serving. Always runs single-threaded — the shared
  /// ThreadPool belongs to the pump (see util/thread_pool.h on external
  /// dispatch).
  static void ExecuteInferenceJob(TruthInferenceJob* job);

  /// Folds a finished job back into the live state by moves alone:
  /// labels, qualities, log-likelihood, phi and class_probs. Bumping
  /// class_probs_version here is the revision barrier — the next
  /// selection's ScoreCache sync sees one consistent new world.
  Status ApplyInference(TruthInferenceJob* job);

  // --- Views and snapshots. ---

  /// The agent's window onto the current state. References live members;
  /// valid until the next mutation.
  rl::StateView MakeView() const;

  /// Streams the complete mutable state to `path` through a
  /// SnapshotStreamWriter, one section's payload at a time.
  Status WriteSnapshot(const std::string& path) const;
  /// Restores from a verified snapshot, one section at a time. A section
  /// that is missing, malformed or of another run's shape is rejected
  /// with a Status before anything is sized from it.
  Status ApplyRestore(const io::SnapshotStreamReader& snapshot);

  /// Writes a rotating checkpoint when periodic checkpointing is
  /// configured and due at the current iteration count.
  Status MaybeCheckpoint() const;
  /// Writes a rotating checkpoint unconditionally (graceful shutdown).
  Status WriteCheckpointNow() const;
};

/// Input validation shared by every driver; mirrors the historical
/// CrowdRlFramework::Run prechecks.
Status ValidateRunInputs(const CrowdRlConfig& config,
                         const data::Dataset& dataset,
                         const std::vector<crowd::Annotator>& pool,
                         double budget);

/// Restores the newest checkpoint under config->checkpoint_dir into `rs`
/// when config->resume is set. A missing directory or an empty one is not
/// an error (fresh start); a checkpoint that fails to read or apply is.
Status MaybeResumeFromCheckpointDir(RunState* rs);

}  // namespace crowdrl::core

#endif  // CROWDRL_CORE_RUN_STATE_H_
