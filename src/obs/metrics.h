#ifndef CROWDRL_OBS_METRICS_H_
#define CROWDRL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// \brief Process-wide runtime metrics: monotonic counters, gauges, and
/// geometric histograms behind a thread-safe registry.
///
/// Design constraints (see DESIGN.md §10):
///
///  * **Lock-free hot path.** Incrementing a counter, setting a gauge, or
///    recording a histogram sample is a few relaxed atomic ops on a
///    stable pointer — no locks, no allocation. The registry mutex is
///    taken only at registration and snapshot time.
///  * **Near-zero when disabled.** Every mutation first checks the global
///    enabled flag (one relaxed atomic load + predictable branch, well
///    under a nanosecond); `-DCROWDRL_OBS_BUILD=0` additionally compiles
///    every hook down to nothing.
///  * **No perturbation.** Instrumentation reads clocks and bumps atomics;
///    it never touches an RNG stream or any numeric state, so instrumented
///    runs stay bit-identical to uninstrumented ones (enforced by the
///    checkpoint-resume and parallel-scoring determinism tests).
///
/// This library sits *below* `crowdrl_util` in the dependency order (the
/// ThreadPool itself is instrumented), so it depends on nothing but the
/// standard library. Metric names follow `crowdrl.<subsystem>.<name>`.

/// Compile-time kill switch: build with -DCROWDRL_OBS_BUILD=0 to compile
/// every metrics/trace hook to nothing (the "compiled-out" row of
/// BENCH_obs.json).
#ifndef CROWDRL_OBS_BUILD
#define CROWDRL_OBS_BUILD 1
#endif

namespace crowdrl::obs {

/// Observability knobs threaded through CrowdRlConfig and the bench flags.
struct ObsOptions {
  /// Master switch. False (the default) keeps every hook a ~sub-ns no-op.
  bool enabled = false;
  /// Record RAII trace spans into the process-wide TraceRecorder.
  /// Meaningful only with `enabled`.
  bool tracing = false;
  /// When non-empty, CrowdRlFramework::Run appends one MetricsSnapshot
  /// JSON record per labelling iteration to this file.
  std::string metrics_jsonl_path;
  /// When non-empty (and tracing), CrowdRlFramework::Run exports the
  /// accumulated spans as Chrome trace-event JSON at the end of the run.
  std::string trace_json_path;
  /// Record answer-lifecycle stage latencies (dispatch→deliver→arrive→
  /// commit→observe) in nanoseconds into the registry histograms
  /// crowdrl.serve.<campaign>.lifecycle.<stage>. Serve-mode only; implies
  /// `enabled`.
  bool lifecycle = false;
  /// Configure (preallocate) and enable the process-wide FlightRecorder
  /// ring journal. Implies `enabled`.
  bool flight_recorder = false;
  /// Ring capacity in events when `flight_recorder` is set (32 bytes
  /// each; the default is a 2 MiB black box). First configuration wins.
  size_t flight_recorder_events = 1 << 16;
};

namespace internal {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_tracing;
}  // namespace internal

/// True when metrics hooks are live. The single branch every hot-path
/// mutation pays; hooks mark its disabled side [[likely]], so a disabled
/// hook falls through without a taken branch.
inline bool Enabled() {
#if CROWDRL_OBS_BUILD
  return internal::g_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// True when trace spans are being recorded (requires Enabled()).
inline bool TracingEnabled() {
#if CROWDRL_OBS_BUILD
  return internal::g_tracing.load(std::memory_order_relaxed) &&
         internal::g_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

void SetEnabled(bool enabled);
void SetTracing(bool tracing);

/// Turns hooks ON as requested by `options`. Never turns them off: a
/// framework constructed with default (disabled) options must not silence
/// observability another component enabled process-wide.
void ApplyOptions(const ObsOptions& options);

/// Monotonic steady-clock nanoseconds (the time base of spans, the
/// ThreadPool wait/run histograms and the lifecycle stages).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// \brief Monotonic counter. Increments wrap modulo 2^64 (unsigned
/// arithmetic), which a snapshot consumer diffing successive values
/// handles transparently.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
#if CROWDRL_OBS_BUILD
    if (!Enabled()) [[likely]] return;
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins double gauge.
class Gauge {
 public:
  void Set(double value) {
#if CROWDRL_OBS_BUILD
    if (!Enabled()) [[likely]] return;
    value_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Geometric histogram of non-negative integer samples, recorded
/// wait-free on relaxed atomics.
///
/// Every histogram shares one layout of inclusive integer upper bounds:
/// 1, 2, ..., 12, then floor(1.25^i) up to ~2.03e12 (above 2^40), plus
/// an overflow bucket. A sample lands in the first bucket whose bound is
/// >= the value. The layout holds nanosecond latencies of half an hour
/// and GEMM flop counts alike, so call sites record integers in their
/// natural unit and name the unit in the metric. Count, sum and max are
/// exact. A quantile is interpolated inside the bucket holding its rank,
/// so it is exact to one bucket width: exact up to 12, within ~26% above.
class Histogram {
 public:
  static constexpr size_t kNumBounds = 128;

  /// Upper bound of bucket `i` < kNumBounds (bucket kNumBounds is the
  /// overflow).
  static uint64_t BucketBound(size_t i);
  /// The bucket `value` lands in (kNumBounds = overflow).
  static size_t BucketIndex(uint64_t value);

  void Record(uint64_t value) {
#if CROWDRL_OBS_BUILD
    if (!Enabled()) [[likely]] return;
    Add(value);
#else
    (void)value;
#endif
  }

  /// The sum of the bucket counters: one atomic add per sample fewer
  /// than a separate count, and always consistent with the quantiles.
  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// Quantile `q` in [0, 1] in the recorded unit; 0 when empty.
  double Quantile(double q) const;
  void Reset();

 private:
  void Add(uint64_t value);

  std::array<std::atomic<uint64_t>, kNumBounds + 1> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

/// One histogram's exported summary, in the recorded unit.
struct HistogramSample {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  /// Reads count, sum, max and the three quantiles of `histogram`.
  static HistogramSample From(const Histogram& histogram);
  /// {"count":N,"sum":S,"max":M,"p50":..,"p90":..,"p99":..}
  std::string ToJson() const;
};

/// A point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// One JSON object (no trailing newline):
  /// {"counters":{...},"gauges":{...},"histograms":{name:{"count":N,
  /// "sum":S,"max":M,"p50":..,"p90":..,"p99":..}}}. Non-finite gauge
  /// values are emitted as null (JSON has no Inf/NaN).
  std::string ToJson() const;
};

/// \brief Process-wide metric store. Registration is idempotent and
/// returns stable pointers that live for the rest of the process, so call
/// sites cache them in function-local statics:
///
///     static obs::Counter* const c =
///         obs::MetricsRegistry::Get().GetCounter("crowdrl.gemm.calls");
///     c->Inc();
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  /// Finds or creates. The returned pointer is never invalidated.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every value (names stay registered).
  /// For tests and run isolation; not meant for the hot path.
  void ResetAll();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Appends `s` to `out` as a quoted JSON string, escaping quotes,
/// backslashes and control characters (every JSON writer of src/obs uses
/// this one escaper).
void AppendJsonString(std::string_view s, std::string* out);

/// \brief Line-per-record sink for MetricsSnapshots (the `--metrics_out`
/// run_metrics.jsonl file): {"iteration":N,<snapshot fields>}\n.
class MetricsJsonlWriter {
 public:
  MetricsJsonlWriter() = default;
  ~MetricsJsonlWriter();

  MetricsJsonlWriter(const MetricsJsonlWriter&) = delete;
  MetricsJsonlWriter& operator=(const MetricsJsonlWriter&) = delete;

  /// Truncates and opens `path`. Returns false (with the file left
  /// closed) on I/O failure.
  bool Open(const std::string& path);
  bool is_open() const { return file_ != nullptr; }

  void WriteRecord(size_t iteration, const MetricsSnapshot& snapshot);
  /// Pushes buffered records to the OS. The labelling service flushes on
  /// campaign completion and on graceful shutdown so a killed process
  /// keeps every record up to its last finished round.
  void Flush();
  void Close();

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace crowdrl::obs

#endif  // CROWDRL_OBS_METRICS_H_
