#ifndef CROWDRL_BENCH_BENCH_COMMON_H_
#define CROWDRL_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"
#include "crowd/annotator.h"
#include "data/dataset.h"
#include "eval/experiment.h"
#include "math/backend.h"

namespace crowdrl::bench {

/// Stamps the shared metadata header into an already-open JSON object —
/// call right after writing the opening "{":
///   "meta": {"backend": "...", "simd_tier": "...", "threads": N},
/// Every BENCH_*.json writer emits this so committed results say which
/// compute backend (math::ReferenceBackend()->Name()), SIMD tier and
/// thread count produced them. Header-only so binaries that don't link
/// crowdrl_bench_common (micro_components) can stamp too.
inline void WriteBenchMeta(std::FILE* out, int threads) {
  std::fprintf(out,
               "  \"meta\": {\"backend\": \"%s\", \"simd_tier\": \"%s\", "
               "\"threads\": %d},\n",
               math::ReferenceBackend()->Name(),
               math::SimdTierName(math::ActiveSimdTier()), threads);
}

/// Command-line knobs shared by all figure benches.
///
/// Defaults are scaled to keep each bench interactive; `--full` restores
/// the paper's dataset sizes, prosodic dimensionality and budgets.
struct BenchConfig {
  /// Fraction of each paper dataset (objects and budget scale together).
  double scale = 0.25;
  /// Seeds per cell (metrics are averaged).
  int seeds = 1;
  bool full = false;
  uint64_t base_seed = 100;
  /// Largest worker-thread count exercised by the benches that sweep
  /// thread counts (fig5's candidate-scoring sweep).
  int threads = 4;
  /// Checkpointing for the CrowdRL entry (crash-safe long benches):
  /// directory for rotating checkpoint files (empty = off).
  std::string checkpoint_dir;
  /// Checkpoint every N labelling iterations (0 = off).
  size_t checkpoint_every = 0;
  /// Resume the CrowdRL run from the newest checkpoint in checkpoint_dir.
  bool resume = false;
  /// Observability (DESIGN.md §10): --obs enables the metrics hooks
  /// process-wide (so non-framework bench stages are covered too);
  /// --metrics_out makes the CrowdRL entry append one metrics record per
  /// labelling iteration; --trace_out additionally records trace spans,
  /// which WriteTraceOut exports as Chrome trace-event JSON once, after
  /// the last cell.
  bool obs = false;
  std::string metrics_out;
  std::string trace_out;
  /// Overrides the object count of every dataset variant (0 = use the
  /// paper size scaled by --scale). Lets the serve bench and the scale
  /// smoke grow campaigns beyond the paper datasets.
  size_t objects_override = 0;
};

/// Parses --scale=F --seeds=N --full --seed=S --threads=T
/// --checkpoint-dir=D --checkpoint-every=N --resume --obs
/// --metrics_out=PATH --trace_out=PATH; unknown flags abort with a usage
/// message.
BenchConfig ParseArgs(int argc, char** argv);

/// One evaluation workload: dataset + pool + budget.
struct Workload {
  data::Dataset dataset;
  std::vector<crowd::Annotator> pool;
  double budget = 0.0;
};

/// Builds a dataset variant by paper name: "S12C", "S12P", "S12CP",
/// "S3C", "S3P", "S3CP", "Fashion".
data::Dataset MakeDatasetVariant(const std::string& name,
                                 const BenchConfig& config);

/// Default pool for a dataset family (Section VI-B1: |W| = 5 for the
/// speech datasets, 3 for Fashion; worker cost 1, expert cost 10).
std::vector<crowd::Annotator> MakePoolFor(const std::string& dataset_name,
                                          int num_classes, uint64_t seed);

/// Pool of an explicit size (Fig. 6's |W| sweep).
std::vector<crowd::Annotator> MakePoolOfSize(int total, int num_classes,
                                             uint64_t seed);

/// Paper budget for a dataset family (10,000 speech / 160,000 Fashion),
/// scaled with the config.
double BudgetFor(const std::string& dataset_name, const BenchConfig& config);

/// Complete workload for a named variant under the shared defaults.
Workload MakeWorkload(const std::string& name, const BenchConfig& config);

/// Offline Q-network pre-training (the paper's "cross training
/// methodology": the DQN is trained on workloads other than the one under
/// evaluation). Runs CrowdRL over two held-out synthetic workloads and
/// returns the resulting parameters. Cached per (config) call site by the
/// caller if reuse is wanted — the call itself takes a few seconds.
std::vector<double> PretrainCrowdRl(const BenchConfig& config);

/// Exports every span recorded so far to --trace_out (no-op without it)
/// and reports the export's size and time on stderr. Call once, after the
/// last cell.
void WriteTraceOut(const BenchConfig& config);

/// The six frameworks of Fig. 4-7, in the paper's order:
/// DLTA, OBA, IDLE, DALC, Hybrid, CrowdRL. `pretrained_q` (may be empty)
/// warm-starts CrowdRL's Q-network. When `config` is non-null, its
/// checkpoint flags are applied to the CrowdRL entry (the baselines have
/// no mutable state worth snapshotting).
std::vector<std::unique_ptr<core::LabellingFramework>> MakeAllFrameworks(
    const std::vector<double>& pretrained_q = {},
    const BenchConfig* config = nullptr);

/// Runs one cell and returns the outcome; aborts the bench on error.
eval::ExperimentOutcome RunCell(core::LabellingFramework* framework,
                                const Workload& workload,
                                const BenchConfig& config);

/// Prints the standard bench banner (figure id, scale, seeds).
void PrintBanner(const std::string& figure, const BenchConfig& config);

/// Resident-set size of this process right now, in KiB (Linux
/// /proc/self/status VmRSS; 0 when unreadable).
size_t CurrentRssKb();

/// Lifetime peak resident-set size, in KiB (VmHWM, falling back to
/// getrusage ru_maxrss; 0 when neither is available).
size_t PeakRssKb();

}  // namespace crowdrl::bench

#endif  // CROWDRL_BENCH_BENCH_COMMON_H_
