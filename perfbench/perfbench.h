// Shared pieces of the repository benchmark: the run options every
// workload receives, the in-memory span recorder used by traced runs, and
// the report a workload fills in. Everything here sits outside the
// library: layers are timed from the benchmark's side of their public
// calls, and the library's own observability stays switched off.

#ifndef CROWDRL_PERFBENCH_PERFBENCH_H_
#define CROWDRL_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement window: cycles repeat while the next one is expected to
  /// end inside it (at least one always runs).
  double seconds = 10.0;
  /// false: plain run, end-to-end metrics. true: traced run, per-layer
  /// metrics (plain and traced episodes alternate so the tracing overhead
  /// is measured on the same inputs).
  bool trace = false;
  /// Directory for reports, traces and checkpoint files (relative to the
  /// working directory).
  std::string out_dir = ".bench_out";
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Process peak resident set (VmHWM), MiB.
double PeakRssMb();

/// \brief In-memory span recorder for traced runs.
///
/// Spans live on tracks (one per benchmark thread, fixed before the
/// threads start, so recording never locks). Each span knows its parent
/// (the innermost span open on its track when it began); on End its self
/// time — duration minus the time covered by its direct children — is
/// folded into a per-name aggregate. A disabled recorder ignores every
/// call, which is what plain runs use.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    int32_t parent;  ///< Index into the same track, -1 for a root.
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Aggregate {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  SpanRecorder(bool enabled, int tracks);

  bool enabled() const { return enabled_; }

  /// Opens a span on `track`; returns its handle (-1 when disabled).
  int Begin(int track, const char* name);
  void End(int track, int handle);

  /// Per-name aggregates across every track.
  std::map<std::string, Aggregate> Aggregates() const;

  /// Chrome trace-event JSON of every stored span (spans beyond the
  /// per-track cap are aggregated but not stored; their count is written
  /// as "dropped_spans").
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct OpenSpan {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;  // Time covered by finished direct children.
    int32_t stored;    // Index in `spans`, -1 past the storage cap.
  };
  struct Track {
    std::vector<Span> spans;
    std::vector<OpenSpan> open;  // Stack; a handle is a stack depth.
    std::map<std::string, Aggregate> aggregates;
    uint64_t dropped = 0;
  };
  bool enabled_;
  int64_t epoch_ns_;
  std::vector<Track> tracks_;
};

/// RAII span on one track.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, int track, const char* name)
      : recorder_(recorder), track_(track),
        handle_(recorder->Begin(track, name)) {}
  ~ScopedSpan() { recorder_->End(track_, handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int track_;
  int handle_;
};

/// One named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one episode (one trajectory, plain or traced) measured.
struct EpisodeResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double answers = 0.0;
  double accuracy = 0.0;
  /// Every task wait of the episode, milliseconds (pooled per cycle).
  std::vector<double> task_waits_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output fingerprint: equal across episodes of a deterministic
  /// workload (labels, selections); compared across episodes.
  uint64_t fingerprint = 0;
  bool deterministic = true;
  /// Workload-specific correctness checks: description -> passed.
  std::vector<std::pair<std::string, bool>> checks;
  /// Per-layer values measured from outside (traced episodes fill the
  /// timing ones, every episode fills the counters).
  std::map<std::string, Metric> layers;
};

/// A workload: a fixed set of trajectories, each a complete labelling
/// run on its own inputs made from the run seed. One cycle runs every
/// trajectory once; end-to-end metrics pool a cycle's trajectories, so
/// trajectory-to-trajectory variation averages out inside each run.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Parameters stamped into every report (sizes, threads, seeds).
  virtual std::string ConfigJson() const = 0;
  /// Threads this workload's process uses in total.
  virtual int threads() const = 0;
  /// Trajectories per cycle.
  virtual int trajectories() const = 0;
  /// Builds the inputs and the program state trajectory 0 starts from,
  /// then discards them; returns the seconds it took (extra set-up
  /// samples for runs that fit few episodes).
  virtual double MeasureSetup() = 0;
  /// Runs one episode of `trajectory`: set-up, then the measured run.
  /// `spans` is enabled for traced episodes.
  virtual EpisodeResult RunEpisode(int trajectory, SpanRecorder* spans) = 0;
};

/// Factory by workload name; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const RunOptions& options);

std::unique_ptr<Workload> MakeBatchPaper(const RunOptions& options);
std::unique_ptr<Workload> MakeBatchWidePool(const RunOptions& options);
std::unique_ptr<Workload> MakeServeAsync(const RunOptions& options);
std::unique_ptr<Workload> MakeSelectHier(const RunOptions& options);

/// hash_combine-style mixing for output fingerprints.
inline uint64_t Mix(uint64_t hash, uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  return hash;
}

/// Fraction of `labels` equal to `truths`.
double Accuracy(const std::vector<int>& labels, const std::vector<int>& truths);

/// Seed of input stream `tag` derived from the run seed (below 2^47, so
/// it prints exactly in the JSON report).
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

}  // namespace perfbench

#endif  // CROWDRL_PERFBENCH_PERFBENCH_H_
