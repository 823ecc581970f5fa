// perfbench: the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs episodes of one workload for about --seconds seconds on inputs made
// from --seed, checks every episode's outputs, and prints a human-readable
// summary followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics of plain episodes. --trace 1
// alternates plain and traced episodes on the same inputs and reports the
// per-layer metrics, the layer self-time table and the tracing overhead.
// A report stamped with the run's configuration, and in traced runs the
// spans as Chrome trace-event JSON, are written under .bench_out/.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "math/backend.h"
#include "perfbench.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py verifies the names).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"answers_per_s", "1/s"},
    {"accuracy", "fraction"},
    {"task_wait_ms.p50", "ms"},
    {"task_wait_ms.p95", "ms"},
    {"peak_rss_mb", "MiB"},
};

const MetricSpec kPerLayer[] = {
    {"core.bootstrap_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.plan_ms.p50", "ms"},
    {"core.execute_ms", "ms"},
    {"core.finish_ms", "ms"},
    {"core.finish_ms.p50", "ms"},
    {"core.finalize_ms", "ms"},
    {"core.iterations", "count"},
    {"rl.rows_featurized", "count"},
    {"rl.score_cache.hit_rate", "fraction"},
    {"rl.prune.served_fraction", "fraction"},
    {"rl.prune.exact_rows", "count"},
    {"rl.prune.gate_fallbacks", "count"},
    {"rl.select_first_ms", "ms"},
    {"rl.select_ms.p50", "ms"},
    {"rl.observe_ms.p50", "ms"},
    {"rl.hier.scored_pairs", "count"},
    {"rl.hier.scored_fraction", "fraction"},
    {"rl.hier.expanded_bucket_fraction", "fraction"},
    {"rl.hier.full_fallbacks", "count"},
    {"rl.hier.rep_refreshes", "count"},
    {"serve.pump_busy_ms", "ms"},
    {"serve.pump_busy_fraction", "fraction"},
    {"serve.pump_idle_ms", "ms"},
    {"serve.ti_stall_ms", "ms"},
    {"serve.ti_swaps", "count"},
    {"serve.rounds", "count"},
    {"serve.request_work_us.p50", "us"},
    {"serve.request_work_us.p99", "us"},
    {"serve.push_us.p50", "us"},
    {"serve.push_us.p99", "us"},
    {"serve.answers", "count"},
    {"serve.abandoned", "count"},
    {"serve.task_wait_samples", "count"},
    {"io.checkpoint_write_ms", "ms"},
    {"io.checkpoint_read_ms", "ms"},
    {"io.checkpoint_bytes", "bytes"},
    {"trace.unattributed_fraction", "fraction"},
    {"trace.overhead_fraction", "fraction"},
};

// Largest share of an episode's wall time its root span may keep as self
// time (time inside no layer span) before "layers add up" fails.
constexpr double kUnattributedTolerance = 0.05;

// Hard stop for the episode loop, well inside the 180 s run limit.
constexpr double kMaxLoopSeconds = 120.0;

// Set-up samples per run: extra set-ups run after the measured window
// until there are this many and they took this long in total, so short
// set-ups still get a steady median.
constexpr size_t kMinSetupSamples = 5;
constexpr double kMinSetupTotalS = 1.0;
constexpr size_t kMaxSetupSamples = 400;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <batch-paper|batch-widepool|"
               "serve-async|select-hier> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n",
               argv0);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage(argv[0]);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) Usage(argv[0]);
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage(argv[0]);
      }
      options.trace = value[0] == '1';
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_workload) Usage(argv[0]);
  return options;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<std::pair<std::string, Metric>>& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + m[i].first + "\": {\"value\": " +
           JsonNumber(m[i].second.value) + ", \"unit\": \"" +
           m[i].second.unit + "\"}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  const RunOptions options = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) Usage(argv[0]);
  mkdir(options.out_dir.c_str(), 0755);

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  char stamp[1024];
  std::snprintf(
      stamp, sizeof(stamp),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"threads\": %d, \"nproc\": %ld, "
      "\"backend\": \"%s\", \"simd_tier\": \"%s\", \"params\": %s}",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, workload->threads(), nproc,
      crowdrl::math::ReferenceBackend()->Name(),
      crowdrl::math::SimdTierName(crowdrl::math::ActiveSimdTier()),
      workload->ConfigJson().c_str());
  std::printf("config %s\n", stamp);
  std::fflush(stdout);

  // Whole cycles only: every trajectory runs once per cycle (plain, then
  // traced in traced runs), so a run always pools the same inputs.
  struct Episode {
    int trajectory;
    int cycle;
    bool traced;
    EpisodeResult result;
  };
  std::vector<Episode> episodes;
  std::unique_ptr<SpanRecorder> last_trace;
  std::vector<double> setup_samples;
  const int trajectories = workload->trajectories();
  int cycles = 0;
  const int64_t loop_start = NowNs();
  for (;;) {
    const int64_t cycle_start = NowNs();
    for (int t = 0; t < trajectories; ++t) {
      for (int pass = 0; pass < (options.trace ? 2 : 1); ++pass) {
        const bool traced = pass == 1;
        auto spans = std::make_unique<SpanRecorder>(traced, /*tracks=*/2);
        EpisodeResult result = workload->RunEpisode(t, spans.get());
        std::printf("cycle %d trajectory %d%s: setup %.3f s, run %.3f s, "
                    "%.0f answers, accuracy %.4f\n",
                    cycles, t, traced ? " (traced)" : "", result.setup_s,
                    result.run_s, result.answers, result.accuracy);
        std::fflush(stdout);
        setup_samples.push_back(result.setup_s);
        if (traced) last_trace = std::move(spans);
        episodes.push_back(Episode{t, cycles, traced, std::move(result)});
      }
    }
    ++cycles;
    const double cycle_s = MsBetween(cycle_start, NowNs()) / 1e3;
    const double elapsed_s = MsBetween(loop_start, NowNs()) / 1e3;
    if (elapsed_s + cycle_s > options.seconds) break;
    if (elapsed_s > kMaxLoopSeconds) break;
  }
  double setup_total_s = 0.0;
  for (double s : setup_samples) setup_total_s += s;
  while ((setup_samples.size() < kMinSetupSamples ||
          setup_total_s < kMinSetupTotalS) &&
         setup_samples.size() < kMaxSetupSamples) {
    const double s = workload->MeasureSetup();
    setup_samples.push_back(s);
    setup_total_s += s;
  }

  // --- Correctness: every check of every episode, plus determinism. ---
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, bool> checks;
  auto note = [&checks](const std::string& name, bool passed) {
    auto it = checks.emplace(name, true).first;
    it->second = it->second && passed;
  };
  std::vector<const EpisodeResult*> first_of(
      static_cast<size_t>(trajectories), nullptr);
  for (const Episode& e : episodes) {
    const EpisodeResult*& first = first_of[static_cast<size_t>(e.trajectory)];
    if (first == nullptr) first = &e.result;
    attempted += e.result.attempted;
    failed += e.result.failed;
    for (const auto& [name, passed] : e.result.checks) note(name, passed);
    if (e.result.deterministic) {
      // Same trajectory, same inputs: identical outputs, traced or not.
      note("identical outputs per trajectory (plain and traced)",
           e.result.fingerprint == first->fingerprint);
      note("identical accuracy per trajectory (plain and traced)",
           e.result.accuracy == first->accuracy);
    }
    if (e.traced) {
      auto it = e.result.layers.find("trace.unattributed_fraction");
      note("layer self times add up to episode wall (unattributed <= 5%)",
           it != e.result.layers.end() &&
               it->second.value <= kUnattributedTolerance);
    }
  }
  std::printf("checks:\n");
  for (const auto& [name, passed] : checks) {
    std::printf("  [%s] %s\n", passed ? "ok" : "FAILED", name.c_str());
    correct = correct && passed;
  }
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  // --- Metrics: pooled per cycle, medianed over cycles. ---
  std::vector<std::pair<std::string, Metric>> metrics;
  if (!options.trace) {
    std::vector<double> run_s, rate, accuracy, p50, p95;
    for (int c = 0; c < cycles; ++c) {
      double answers = 0.0, seconds = 0.0, right = 0.0;
      std::vector<double> waits;
      for (const Episode& e : episodes) {
        if (e.cycle != c) continue;
        answers += e.result.answers;
        seconds += e.result.run_s;
        right += e.result.accuracy;
        waits.insert(waits.end(), e.result.task_waits_ms.begin(),
                     e.result.task_waits_ms.end());
      }
      std::printf("cycle %d task waits: n=%zu p50 %.2f p90 %.2f p95 %.2f "
                  "p99 %.2f max %.2f ms\n",
                  c, waits.size(), Quantile(waits, 0.5), Quantile(waits, 0.9),
                  Quantile(waits, 0.95), Quantile(waits, 0.99),
                  Quantile(waits, 1.0));
      run_s.push_back(seconds);
      rate.push_back(answers / seconds);
      accuracy.push_back(right / trajectories);
      p50.push_back(Quantile(waits, 0.5));
      p95.push_back(Quantile(waits, 0.95));
    }
    const std::map<std::string, double> values = {
        {"setup_s", Median(setup_samples)},
        {"run_s", Median(run_s)},
        {"answers_per_s", Median(rate)},
        {"accuracy", Median(accuracy)},
        {"task_wait_ms.p50", Median(p50)},
        {"task_wait_ms.p95", Median(p95)},
        {"peak_rss_mb", PeakRssMb()},
    };
    for (const MetricSpec& spec : kEndToEnd) {
      metrics.emplace_back(spec.name,
                           Metric{values.at(spec.name), spec.unit});
    }
    std::printf("end-to-end (median of %d cycles x %d trajectories; %zu "
                "set-ups):\n",
                cycles, trajectories, setup_samples.size());
  } else {
    double plain_run = 0.0, traced_run = 0.0;
    for (const Episode& e : episodes) {
      (e.traced ? traced_run : plain_run) += e.result.run_s;
    }
    for (const MetricSpec& spec : kPerLayer) {
      std::vector<double> per_cycle;
      for (int c = 0; c < cycles; ++c) {
        double sum = 0.0;
        int count = 0;
        for (const Episode& e : episodes) {
          if (e.cycle != c || !e.traced) continue;
          auto it = e.result.layers.find(spec.name);
          sum += it == e.result.layers.end() ? 0.0 : it->second.value;
          ++count;
        }
        per_cycle.push_back(count > 0 ? sum / count : 0.0);
      }
      double value = Median(per_cycle);
      if (std::strcmp(spec.name, "trace.overhead_fraction") == 0) {
        value = traced_run / plain_run - 1.0;
      }
      metrics.emplace_back(spec.name, Metric{value, spec.unit});
    }
    // Layer self-time table of the last traced episode.
    const auto agg = last_trace->Aggregates();
    const double wall_ms = agg.at("episode").total_ms;
    std::printf("layer self time (last traced episode, wall %.2f ms):\n",
                wall_ms);
    double self_sum = 0.0;
    for (const auto& [name, a] : agg) {
      if (name == "client") continue;  // The client thread's own track.
      std::printf("  %-22s %8llu spans %11.2f ms total %11.2f ms self "
                  "%6.1f%%\n",
                  name.c_str(), static_cast<unsigned long long>(a.count),
                  a.total_ms, a.self_ms, 100.0 * a.self_ms / wall_ms);
      self_sum += a.self_ms;
    }
    std::printf("  self times sum to %.2f ms of %.2f ms wall (episode self "
                "time = unattributed)\n",
                self_sum, wall_ms);
    std::printf("tracing overhead: traced episodes %.3f s vs plain %.3f s "
                "(%+.2f%%) over %d cycles x %d trajectories\n",
                traced_run, plain_run, 100.0 * (traced_run / plain_run - 1.0),
                cycles, trajectories);
    const std::string trace_path = options.out_dir + "/" + options.workload +
                                   "-seed" + std::to_string(options.seed) +
                                   ".trace.json";
    if (!last_trace->WriteChromeTrace(trace_path)) {
      std::printf("warning: cannot write %s\n", trace_path.c_str());
    }
    std::printf("per-layer (mean over trajectories, median over %d "
                "cycles):\n",
                cycles);
  }
  for (const auto& [name, m] : metrics) {
    std::printf("  %-34s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  const std::string result_json =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  const std::string report_path = options.out_dir + "/" + options.workload +
                                  "-seed" + std::to_string(options.seed) +
                                  "-trace" + (options.trace ? "1" : "0") +
                                  ".json";
  if (std::FILE* report = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(report, "{\"config\": %s,\n \"episodes\": %zu,\n "
                 "\"result\": %s}\n",
                 stamp, episodes.size(), result_json.c_str());
    std::fclose(report);
  }
  std::printf("%s\n", result_json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
