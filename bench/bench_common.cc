#include "bench/bench_common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "baselines/dalc.h"
#include "baselines/dlta.h"
#include "baselines/hybrid.h"
#include "baselines/idle.h"
#include "baselines/oba.h"
#include "core/crowdrl.h"
#include "data/workloads.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace crowdrl::bench {

namespace {

constexpr double kSpeechBudget = 10000.0;
constexpr double kFashionBudget = 160000.0;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scale=F] [--seeds=N] [--seed=S] [--full] "
               "[--threads=T] [--checkpoint-dir=D] [--checkpoint-every=N] "
               "[--resume] [--obs] [--metrics_out=PATH] [--trace_out=PATH]\n"
               "  --scale=F    fraction of the paper's dataset size/budget "
               "(default 0.25)\n"
               "  --seeds=N    seeds per cell, metrics averaged (default 1)\n"
               "  --seed=S     base seed (default 100)\n"
               "  --full       paper-scale datasets, dims and budgets\n"
               "  --threads=T  largest thread count in thread sweeps "
               "(default 4)\n"
               "  --checkpoint-dir=D    rotating CrowdRL checkpoints in D\n"
               "  --checkpoint-every=N  checkpoint every N iterations\n"
               "  --resume              resume CrowdRL from the newest "
               "checkpoint in D\n"
               "  --obs                 enable runtime metrics hooks\n"
               "  --metrics_out=PATH    per-iteration CrowdRL metrics JSONL "
               "(implies --obs)\n"
               "  --trace_out=PATH      Chrome trace-event JSON of the "
               "CrowdRL run (implies --obs)\n"
               "  --objects=N           override every dataset variant's "
               "object count (0 = paper size x scale)\n",
               argv0);
  std::exit(2);
}

bool IsSpeech(const std::string& name) {
  return name.rfind("S12", 0) == 0 || name.rfind("S3", 0) == 0;
}

data::FeatureView ViewFromSuffix(const std::string& name,
                                 const std::string& base) {
  std::string suffix = name.substr(base.size());
  if (suffix == "C") return data::FeatureView::kContextual;
  if (suffix == "P") return data::FeatureView::kProsodic;
  CROWDRL_CHECK(suffix == "CP") << "unknown view suffix in " << name;
  return data::FeatureView::kConcatenated;
}

}  // namespace

BenchConfig ParseArgs(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      config.scale = std::atof(arg + 8);
      if (config.scale <= 0.0 || config.scale > 1.0) Usage(argv[0]);
    } else if (std::strncmp(arg, "--seeds=", 8) == 0) {
      config.seeds = std::atoi(arg + 8);
      if (config.seeds <= 0) Usage(argv[0]);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.base_seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      config.threads = std::atoi(arg + 10);
      if (config.threads <= 0) Usage(argv[0]);
    } else if (std::strncmp(arg, "--checkpoint-dir=", 17) == 0) {
      config.checkpoint_dir = arg + 17;
      if (config.checkpoint_dir.empty()) Usage(argv[0]);
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      config.checkpoint_every =
          static_cast<size_t>(std::atoll(arg + 19));
    } else if (std::strcmp(arg, "--resume") == 0) {
      config.resume = true;
    } else if (std::strcmp(arg, "--obs") == 0) {
      config.obs = true;
    } else if (std::strncmp(arg, "--metrics_out=", 14) == 0) {
      config.metrics_out = arg + 14;
      if (config.metrics_out.empty()) Usage(argv[0]);
      config.obs = true;
    } else if (std::strncmp(arg, "--trace_out=", 12) == 0) {
      config.trace_out = arg + 12;
      if (config.trace_out.empty()) Usage(argv[0]);
      config.obs = true;
    } else if (std::strncmp(arg, "--objects=", 10) == 0) {
      config.objects_override = static_cast<size_t>(std::atoll(arg + 10));
    } else if (std::strcmp(arg, "--full") == 0) {
      config.full = true;
      config.scale = 1.0;
    } else {
      Usage(argv[0]);
    }
  }
  // Global enable so the hooks cover every bench stage (pretraining,
  // baselines, thread sweeps), not just the CrowdRL framework run.
  if (config.obs) {
    obs::SetEnabled(true);
    if (!config.trace_out.empty()) obs::SetTracing(true);
  }
  return config;
}

data::Dataset MakeDatasetVariant(const std::string& name,
                                 const BenchConfig& config) {
  double scale = config.full ? 1.0 : config.scale;
  if (IsSpeech(name)) {
    std::string base = name.rfind("S12", 0) == 0 ? "S12" : "S3";
    data::SpeechOptions options;
    options.view = ViewFromSuffix(name, base);
    options.full_scale_prosodic = config.full;
    size_t paper_size = base == "S12" ? 2344 : 1898;
    options.num_objects = static_cast<size_t>(std::llround(
        scale * static_cast<double>(paper_size)));
    if (config.objects_override > 0) {
      options.num_objects = config.objects_override;
    }
    return base == "S12" ? data::MakeSpeech12(options)
                         : data::MakeSpeech3(options);
  }
  CROWDRL_CHECK(name == "Fashion") << "unknown dataset variant " << name;
  data::FashionOptions options;
  options.full_scale = config.full;
  if (!config.full) {
    options.num_objects = static_cast<size_t>(
        std::llround(scale * 32398.0 * 0.1));
    // Fashion is 14x larger than the speech sets; an extra 10x reduction
    // keeps the default bench interactive. --full restores 32,398.
    options.num_objects = std::max<size_t>(options.num_objects, 200);
  }
  if (config.objects_override > 0) {
    options.full_scale = false;
    options.num_objects = config.objects_override;
  }
  return data::MakeFashion(options);
}

std::vector<crowd::Annotator> MakePoolFor(const std::string& dataset_name,
                                          int num_classes, uint64_t seed) {
  int total = IsSpeech(dataset_name) ? 5 : 3;
  return MakePoolOfSize(total, num_classes, seed);
}

std::vector<crowd::Annotator> MakePoolOfSize(int total, int num_classes,
                                             uint64_t seed) {
  return crowd::MakePool(crowd::PoolOfSize(total, num_classes, seed));
}

double BudgetFor(const std::string& dataset_name,
                 const BenchConfig& config) {
  double scale = config.full ? 1.0 : config.scale;
  if (IsSpeech(dataset_name)) return kSpeechBudget * scale;
  // Matches the extra 10x Fashion reduction in MakeDatasetVariant.
  return config.full ? kFashionBudget : kFashionBudget * scale * 0.1;
}

Workload MakeWorkload(const std::string& name, const BenchConfig& config) {
  Workload workload;
  workload.dataset = MakeDatasetVariant(name, config);
  workload.pool =
      MakePoolFor(name, workload.dataset.num_classes, config.base_seed + 7);
  workload.budget = BudgetFor(name, config);
  return workload;
}

std::vector<double> PretrainCrowdRl(const BenchConfig& config) {
  // Two held-out synthetic workloads (never evaluated by any figure):
  // one easy, one hard, so the Q-network sees both regimes.
  data::GaussianMixtureOptions easy;
  easy.name = "pretrain-easy";
  easy.num_objects = 400;
  easy.view = {32, 2.0, 0.5};
  easy.seed = config.base_seed + 1001;
  data::GaussianMixtureOptions hard;
  hard.name = "pretrain-hard";
  hard.num_objects = 400;
  hard.view = {32, 1.0, 0.3};
  hard.seed = config.base_seed + 1002;
  data::Dataset easy_set = data::MakeGaussianMixture(easy);
  data::Dataset hard_set = data::MakeGaussianMixture(hard);
  std::vector<crowd::Annotator> pool =
      MakePoolOfSize(5, 2, config.base_seed + 1003);
  std::vector<core::PretrainTask> tasks = {
      {&easy_set, &pool, 1700.0},
      {&hard_set, &pool, 1700.0},
  };
  return core::PretrainQNetwork(core::CrowdRlConfig(), tasks,
                                config.base_seed + 1004);
}

std::vector<std::unique_ptr<core::LabellingFramework>> MakeAllFrameworks(
    const std::vector<double>& pretrained_q, const BenchConfig* config) {
  std::vector<std::unique_ptr<core::LabellingFramework>> frameworks;
  frameworks.push_back(std::make_unique<baselines::Dlta>());
  frameworks.push_back(std::make_unique<baselines::Oba>());
  frameworks.push_back(std::make_unique<baselines::Idle>());
  frameworks.push_back(std::make_unique<baselines::Dalc>());
  frameworks.push_back(std::make_unique<baselines::Hybrid>());
  core::CrowdRlConfig crowdrl_config;
  crowdrl_config.pretrained_q_params = pretrained_q;
  if (config != nullptr) {
    crowdrl_config.checkpoint_dir = config->checkpoint_dir;
    crowdrl_config.checkpoint_every_n_iterations = config->checkpoint_every;
    crowdrl_config.resume = config->resume;
    crowdrl_config.obs.enabled = config->obs;
    // Spans accumulate across cells and WriteTraceOut exports them once,
    // after the last: an export per run would rewrite every earlier span.
    crowdrl_config.obs.tracing = !config->trace_out.empty();
    crowdrl_config.obs.metrics_jsonl_path = config->metrics_out;
  }
  frameworks.push_back(
      std::make_unique<core::CrowdRlFramework>(std::move(crowdrl_config)));
  return frameworks;
}

eval::ExperimentOutcome RunCell(core::LabellingFramework* framework,
                                const Workload& workload,
                                const BenchConfig& config) {
  eval::ExperimentSpec spec;
  spec.dataset = &workload.dataset;
  spec.pool = &workload.pool;
  spec.budget = workload.budget;
  spec.num_seeds = config.seeds;
  spec.base_seed = config.base_seed;
  eval::ExperimentOutcome outcome;
  Status status = eval::RunExperiment(framework, spec, &outcome);
  CROWDRL_CHECK(status.ok())
      << framework->name() << " failed: " << status.ToString();
  return outcome;
}

namespace {

// Parses "<Field>:   <kb> kB" out of /proc/self/status; 0 when missing.
size_t ProcStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  size_t kb = 0;
  char line[256];
  size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 &&
        line[field_len] == ':') {
      kb = static_cast<size_t>(std::atoll(line + field_len + 1));
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

size_t CurrentRssKb() { return ProcStatusKb("VmRSS"); }

size_t PeakRssKb() {
  size_t kb = ProcStatusKb("VmHWM");
  if (kb > 0) return kb;
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<size_t>(usage.ru_maxrss);  // KiB on Linux.
  }
  return 0;
}

void WriteTraceOut(const BenchConfig& config) {
  if (config.trace_out.empty()) return;
  const obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  const uint64_t start_ns = obs::NowNs();
  if (!recorder.WriteChromeTrace(config.trace_out)) {
    CROWDRL_LOG(Warning) << "cannot write trace " << config.trace_out;
    return;
  }
  std::fprintf(stderr, "trace: %zu spans to %s in %.1f ms\n",
               recorder.event_count(), config.trace_out.c_str(),
               static_cast<double>(obs::NowNs() - start_ns) / 1e6);
}

void PrintBanner(const std::string& figure, const BenchConfig& config) {
  std::printf("== %s ==\n", figure.c_str());
  std::printf("scale=%.2f seeds=%d base_seed=%llu%s\n", config.scale,
              config.seeds,
              static_cast<unsigned long long>(config.base_seed),
              config.full ? " (paper-scale --full)" : "");
  std::printf("(shapes, not absolute numbers, are the reproduction "
              "target; see EXPERIMENTS.md)\n\n");
}

}  // namespace crowdrl::bench
