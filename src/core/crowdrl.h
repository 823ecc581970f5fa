#ifndef CROWDRL_CORE_CROWDRL_H_
#define CROWDRL_CORE_CROWDRL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/framework.h"
#include "core/run_state.h"
#include "io/snapshot.h"

namespace crowdrl::core {

/// \brief The end-to-end CrowdRL framework (Algorithm 1).
///
/// Per run: (0) bootstrap — ask annotators to label an alpha fraction of
/// the objects and infer their truths; then iterate until every object is
/// labelled or the budget is exhausted: (1) labelled-set enrichment with
/// the classifier trained by the previous round's joint inference;
/// (2) joint task selection + assignment by the DQN agent (UCB
/// exploration, Q-masking, per-object top-k); (3) execute the assignments
/// against the environment and (4) run joint truth inference, which also
/// retrains phi. The iteration reward r(t) = lambda * r_phi + eta * r_cost
/// feeds experience replay one step delayed, when the enrichment caused by
/// the action's retrained classifier is observable.
/// Checkpointing: a run streams its complete mutable state — answer
/// log, budget ledger, label state, classifier, Q-networks, replay
/// buffer, every RNG stream — section by section through
/// `io::SnapshotStreamWriter` into the versioned snapshot container
/// (io/snapshot.h) at configurable iteration boundaries
/// (CrowdRlConfig::checkpoint_*), and restores section by section
/// through the verified `io::SnapshotStreamReader`.
/// A run resumed from such a checkpoint (same dataset, pool, budget, and
/// seed; threads=1) finishes bit-identically to the uninterrupted run.
class CrowdRlFramework : public LabellingFramework {
 public:
  explicit CrowdRlFramework(CrowdRlConfig config = CrowdRlConfig());
  ~CrowdRlFramework() override;

  Status Run(const data::Dataset& dataset,
             const std::vector<crowd::Annotator>& pool, double budget,
             uint64_t seed, LabellingResult* result) override;

  const char* name() const override;

  const CrowdRlConfig& config() const { return config_; }

  /// Writes the in-progress run state to `path` (atomic write-then-
  /// rename). Valid only while a run is paused — i.e. after Run returned
  /// Status::Interrupted via CrowdRlConfig::halt_after_iterations;
  /// FailedPrecondition otherwise. Periodic checkpointing during Run is
  /// configured with CrowdRlConfig::checkpoint_* instead.
  Status SaveCheckpoint(const std::string& path) const;

  /// Reads and validates a snapshot file; the next Run call restores from
  /// it instead of starting fresh. The run must be launched with the same
  /// dataset shape, pool, budget, and seed as the checkpointed one
  /// (InvalidArgument otherwise). Corrupt or truncated files are rejected
  /// here with DataLoss.
  Status LoadCheckpoint(const std::string& path);

  /// Q-network parameters at the end of the latest Run (empty before the
  /// first run). Feed these into CrowdRlConfig::pretrained_q_params to
  /// warm-start another run (cross training).
  const std::vector<double>& last_q_parameters() const {
    return last_q_parameters_;
  }

  /// Every (object, annotator) execution attempt of the latest completed
  /// Run, in order (empty before the first run). The determinism bridge
  /// test compares this against a service campaign's log.
  const std::vector<AssignmentRecord>& last_assignment_log() const {
    return last_assignment_log_;
  }

 private:
  CrowdRlConfig config_;
  std::string name_;
  std::vector<double> last_q_parameters_;
  std::vector<AssignmentRecord> last_assignment_log_;
  /// Alive between an Interrupted Run and the next Run (or destruction).
  std::unique_ptr<RunState> run_state_;
  /// Set by LoadCheckpoint; consumed by the next Run. Holds the verified
  /// file open, so the restore reads the bytes LoadCheckpoint checked.
  std::unique_ptr<io::SnapshotStreamReader> pending_restore_;
};

/// One offline pre-training workload for the cross-training protocol.
struct PretrainTask {
  const data::Dataset* dataset = nullptr;
  const std::vector<crowd::Annotator>* pool = nullptr;
  double budget = 0.0;
};

/// Runs CrowdRL sequentially over the tasks, chaining the Q-network
/// parameters from one run into the next, and returns the final
/// parameters (Section VI-A4: "when evaluating one dataset online, we
/// used the other datasets to train the reinforcement learning model
/// offline in advance").
std::vector<double> PretrainQNetwork(CrowdRlConfig config,
                                     const std::vector<PretrainTask>& tasks,
                                     uint64_t seed);

}  // namespace crowdrl::core

#endif  // CROWDRL_CORE_CROWDRL_H_
