// Million-object scale stress (DESIGN.md §13): drives the hierarchical
// candidate generator on a synthetic campaign far beyond the paper
// datasets and emits BENCH_scale.json with the evidence the scale claims
// rest on — scored-candidate sub-linearity (exact Q rows vs the
// |O| x |W| grid), the expanded-bucket fraction, wall-clock and minor
// page faults per selection, peak RSS, and a checkpoint round-trip
// streamed section by section (io::SnapshotStreamWriter/Reader) that
// never materializes the full state in one buffer.
//
// The synthetic workload is index-smooth by construction: class
// probabilities follow a slow sinusoid over the object index and
// annotator qualities a slow sinusoid over the annotator index, so
// bucket/group feature boxes stay tight and the selection gate passes
// (the regime the hierarchy is built for — see the index-locality note
// in DESIGN.md §13). The gate keeps selections exact either way; a
// hostile ordering only costs fallbacks, which this bench reports.
//
// CI runs this at 100k objects with --max_wall_ms / --max_rss_mb budget
// gates (exit 1 on violation); the committed BENCH_scale.json comes from
// a full 1M x 1k run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench/bench_common.h"
#include "crowd/answer_log.h"
#include "io/serializer.h"
#include "io/snapshot.h"
#include "math/matrix.h"
#include "rl/dqn_agent.h"
#include "rl/state.h"
#include "util/logging.h"
#include "util/random.h"

namespace {

using crowdrl::Matrix;
using crowdrl::Status;
using crowdrl::crowd::AnswerLog;
using crowdrl::rl::Assignment;
using crowdrl::rl::DqnAgent;
using crowdrl::rl::DqnAgentOptions;
using crowdrl::rl::StateView;

struct ScaleConfig {
  size_t objects = 1000000;
  size_t annotators = 1000;
  int iterations = 8;
  int k = 3;
  int pick = 32;
  int threads = 4;
  uint64_t seed = 1234;
  std::string json = "BENCH_scale.json";
  std::string checkpoint = "scale_ckpt.snap";
  /// Budget gates (0 = report only): total SelectBatch+Observe wall and
  /// process peak RSS.
  double max_wall_ms = 0.0;
  double max_rss_mb = 0.0;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--objects=N] [--annotators=N] [--iterations=N] "
               "[--k=N] [--pick=N] [--threads=N] [--seed=S] [--json=PATH] "
               "[--checkpoint=PATH] [--max_wall_ms=MS] [--max_rss_mb=MB]\n",
               argv0);
  std::exit(2);
}

ScaleConfig ParseScaleArgs(int argc, char** argv) {
  ScaleConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--objects=", 10) == 0) {
      config.objects = static_cast<size_t>(std::atoll(arg + 10));
    } else if (std::strncmp(arg, "--annotators=", 13) == 0) {
      config.annotators = static_cast<size_t>(std::atoll(arg + 13));
    } else if (std::strncmp(arg, "--iterations=", 13) == 0) {
      config.iterations = std::atoi(arg + 13);
    } else if (std::strncmp(arg, "--k=", 4) == 0) {
      config.k = std::atoi(arg + 4);
    } else if (std::strncmp(arg, "--pick=", 7) == 0) {
      config.pick = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      config.threads = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      config.json = arg + 7;
    } else if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
      config.checkpoint = arg + 13;
    } else if (std::strncmp(arg, "--max_wall_ms=", 14) == 0) {
      config.max_wall_ms = std::atof(arg + 14);
    } else if (std::strncmp(arg, "--max_rss_mb=", 13) == 0) {
      config.max_rss_mb = std::atof(arg + 13);
    } else {
      Usage(argv[0]);
    }
    if (config.objects == 0 || config.annotators == 0 ||
        config.iterations <= 0 || config.k <= 0 || config.pick <= 0 ||
        config.threads <= 0) {
      Usage(argv[0]);
    }
  }
  return config;
}

constexpr int kNumClasses = 3;

/// Index-smooth synthetic state: the borrowed-pointer backing of the
/// StateView the agent scores.
struct SyntheticCampaign {
  AnswerLog answers;
  Matrix class_probs;
  std::vector<bool> labelled;
  std::vector<double> costs;
  std::vector<double> qualities;
  std::vector<bool> is_expert;
  std::vector<bool> affordable;
  double budget = 0.0;
  double spent = 0.0;
  size_t num_labelled = 0;

  SyntheticCampaign(const ScaleConfig& config, crowdrl::Rng* rng)
      : answers(config.objects, config.annotators),
        class_probs(config.objects, kNumClasses),
        labelled(config.objects, false),
        costs(config.annotators, 1.0),
        qualities(config.annotators),
        is_expert(config.annotators, false),
        affordable(config.annotators, true) {
    const double two_pi = 2.0 * M_PI;
    // Fixed wavelengths (in objects / annotators, NOT fractions of the
    // campaign) keep the index-locality of the landscape independent of
    // scale: a 1024-object bucket always spans ~0.1 rad of the class
    // wave, so per-bucket feature boxes stay tight whether the run is
    // 20k or 1M objects.
    constexpr double kObjectWavelength = 1048576.0;
    constexpr double kAnnotatorWavelength = 4096.0;
    for (size_t i = 0; i < config.objects; ++i) {
      double phase = two_pi * static_cast<double>(i) / kObjectWavelength;
      double logits[kNumClasses];
      double max_logit = -1e300;
      for (int c = 0; c < kNumClasses; ++c) {
        // One slow wave per class plus a whisper of noise: class beliefs
        // vary across the campaign but are nearly constant inside any one
        // bucket.
        logits[c] = 1.5 * std::sin(phase + 2.1 * c) +
                    0.002 * rng->Uniform(-1.0, 1.0);
        max_logit = std::max(max_logit, logits[c]);
      }
      double denom = 0.0;
      for (int c = 0; c < kNumClasses; ++c) {
        logits[c] = std::exp(logits[c] - max_logit);
        denom += logits[c];
      }
      for (int c = 0; c < kNumClasses; ++c) {
        class_probs.At(i, c) = logits[c] / denom;
      }
    }
    for (size_t j = 0; j < config.annotators; ++j) {
      double phase = two_pi * static_cast<double>(j) / kAnnotatorWavelength;
      // Small amplitude keeps per-group quality boxes tight (group width
      // inflates every bucket bound equally, eating the discrimination
      // budget). The 1e-4 tilt breaks the sinusoid's mirror symmetry:
      // without it symmetric annotator pairs get bitwise-equal qualities,
      // hence bitwise-tied Q scores, and the selection gate (correctly)
      // refuses to certify tied top-k cuts.
      qualities[j] = 0.75 + 0.02 * std::sin(phase) +
                     1e-4 * static_cast<double>(j) /
                         static_cast<double>(config.annotators);
    }
    // Every answer costs 1; the budget covers the full run so
    // affordability never clips the grid.
    budget = static_cast<double>(config.iterations) *
             static_cast<double>(config.pick) * config.k;
  }

  StateView View() const {
    StateView view;
    view.answers = &answers;
    view.num_classes = kNumClasses;
    view.annotator_costs = &costs;
    view.annotator_qualities = &qualities;
    view.annotator_is_expert = &is_expert;
    view.class_probs = &class_probs;
    view.class_probs_version = 1;  // Never refreshed mid-run.
    view.labelled = &labelled;
    view.budget_fraction_remaining =
        budget > 0.0 ? (budget - spent) / budget : 0.0;
    view.fraction_labelled =
        static_cast<double>(num_labelled) / static_cast<double>(labelled.size());
    view.max_cost = 1.0;
    return view;
  }
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Minor page faults of the whole process (every thread) so far: first
/// touches of fresh pages, about 0.7 ms per MiB on the hosts DESIGN.md
/// §13 measured.
long MinorFaults() {
  struct rusage usage;
  return getrusage(RUSAGE_SELF, &usage) == 0 ? usage.ru_minflt : 0;
}

/// Streams the campaign checkpoint — one section per live answer-log
/// shard plus one agent section — and restores it through the
/// section-at-a-time reader, verifying the restored state byte-for-byte.
struct CheckpointReport {
  size_t file_bytes = 0;
  size_t sections = 0;
  size_t max_section_bytes = 0;
  double write_ms = 0.0;
  double read_ms = 0.0;
  bool verified = false;
};

CheckpointReport RoundTripCheckpoint(const ScaleConfig& config,
                                     const SyntheticCampaign& campaign,
                                     const DqnAgent& agent,
                                     const DqnAgentOptions& agent_options) {
  namespace io = crowdrl::io;
  CheckpointReport report;

  std::vector<size_t> live_shards;
  for (size_t s = 0; s < campaign.answers.num_shards(); ++s) {
    if (!campaign.answers.ShardEmpty(s)) live_shards.push_back(s);
  }

  auto write_start = std::chrono::steady_clock::now();
  io::SnapshotStreamWriter writer;
  Status status = writer.Open(config.checkpoint, live_shards.size() + 1);
  CROWDRL_CHECK(status.ok()) << status.ToString();
  size_t max_section = 0;
  for (size_t s : live_shards) {
    io::Writer payload;
    campaign.answers.SaveShardState(s, &payload);
    max_section = std::max(max_section, payload.size());
    status = writer.AppendSection("answers/shard-" + std::to_string(s),
                                  payload);
    CROWDRL_CHECK(status.ok()) << status.ToString();
  }
  {
    io::Writer payload;
    agent.SaveState(&payload);
    max_section = std::max(max_section, payload.size());
    status = writer.AppendSection("agent", payload);
    CROWDRL_CHECK(status.ok()) << status.ToString();
  }
  status = writer.Close();
  CROWDRL_CHECK(status.ok()) << status.ToString();
  report.write_ms = MsSince(write_start);
  report.sections = live_shards.size() + 1;
  report.max_section_bytes = max_section;

  auto read_start = std::chrono::steady_clock::now();
  io::SnapshotStreamReader reader;
  status = reader.Open(config.checkpoint);
  CROWDRL_CHECK(status.ok()) << status.ToString();
  AnswerLog restored_log(config.objects, config.annotators);
  std::string buffer;
  for (size_t s : live_shards) {
    io::Reader section;
    status = reader.ReadSection("answers/shard-" + std::to_string(s),
                                &buffer, &section);
    CROWDRL_CHECK(status.ok()) << status.ToString();
    status = restored_log.LoadShardState(&section);
    CROWDRL_CHECK(status.ok()) << status.ToString();
  }
  DqnAgent restored_agent(agent_options);
  {
    io::Reader section;
    status = reader.ReadSection("agent", &buffer, &section);
    CROWDRL_CHECK(status.ok()) << status.ToString();
    status = restored_agent.LoadState(&section);
    CROWDRL_CHECK(status.ok()) << status.ToString();
  }
  report.read_ms = MsSince(read_start);
  report.file_bytes = static_cast<size_t>(
      std::ifstream(config.checkpoint, std::ios::binary | std::ios::ate)
          .tellg());

  // Verification: the restored log re-serializes every live shard to the
  // same bytes, and the restored agent re-serializes to the same bytes.
  bool verified = restored_log.total_answers() ==
                  campaign.answers.total_answers();
  for (size_t s : live_shards) {
    io::Writer original, roundtrip;
    campaign.answers.SaveShardState(s, &original);
    restored_log.SaveShardState(s, &roundtrip);
    verified = verified && original.bytes() == roundtrip.bytes();
  }
  {
    io::Writer original, roundtrip;
    agent.SaveState(&original);
    restored_agent.SaveState(&roundtrip);
    verified = verified && original.bytes() == roundtrip.bytes();
  }
  report.verified = verified;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  ScaleConfig config = ParseScaleArgs(argc, argv);
  const double grid_pairs = static_cast<double>(config.objects) *
                            static_cast<double>(config.annotators);
  std::printf("== scale stress ==\n");
  std::printf("objects=%zu annotators=%zu (grid %.3g pairs) iterations=%d "
              "k=%d pick=%d threads=%d\n",
              config.objects, config.annotators, grid_pairs,
              config.iterations, config.k, config.pick, config.threads);

  crowdrl::Rng rng(config.seed);
  auto build_start = std::chrono::steady_clock::now();
  SyntheticCampaign campaign(config, &rng);

  DqnAgentOptions options;
  options.seed = config.seed + 17;
  options.threads = config.threads;
  options.q.threads = config.threads;
  options.train_steps_per_observe = 2;
  DqnAgent agent(options);
  agent.BeginEpisode(config.objects, config.annotators);
  double build_ms = MsSince(build_start);
  CROWDRL_CHECK(agent.HierEngaged())
      << "grid below hier_min_pairs; raise --objects/--annotators";

  std::vector<double> select_ms_per_iter;
  std::vector<long> select_minflt_per_iter;
  std::vector<size_t> scored_per_iter;
  std::vector<size_t> assignments_per_iter;
  auto run_start = std::chrono::steady_clock::now();
  double observe_ms_total = 0.0;
  size_t answers_recorded = 0;
  DqnAgent::HierStats last = agent.hier_stats();
  for (int iter = 0; iter < config.iterations; ++iter) {
    StateView view = campaign.View();
    const long faults_before = MinorFaults();
    auto select_start = std::chrono::steady_clock::now();
    std::vector<Assignment> batch =
        agent.SelectBatch(view, config.k, config.pick, campaign.affordable);
    select_ms_per_iter.push_back(MsSince(select_start));
    select_minflt_per_iter.push_back(MinorFaults() - faults_before);
    const DqnAgent::HierStats& stats = agent.hier_stats();
    scored_per_iter.push_back(stats.scored_pairs - last.scored_pairs);
    last = stats;
    assignments_per_iter.push_back(batch.size());
    if (batch.empty()) break;

    double reward = 0.0;
    for (const Assignment& assignment : batch) {
      for (int annotator : assignment.annotators) {
        // Simulated answer: correct with the annotator's quality.
        int truth = 0;
        double best = campaign.class_probs.At(assignment.object, 0);
        for (int c = 1; c < kNumClasses; ++c) {
          if (campaign.class_probs.At(assignment.object, c) > best) {
            best = campaign.class_probs.At(assignment.object, c);
            truth = c;
          }
        }
        int label = rng.Bernoulli(campaign.qualities[annotator])
                        ? truth
                        : rng.UniformInt(kNumClasses);
        campaign.answers.Record(assignment.object, annotator, label);
        campaign.spent += 1.0;
        ++answers_recorded;
      }
      reward += 1.0;
      campaign.labelled[assignment.object] = true;
      ++campaign.num_labelled;
    }
    reward /= static_cast<double>(batch.size());

    StateView next_view = campaign.View();
    auto observe_start = std::chrono::steady_clock::now();
    agent.Observe(reward, next_view, campaign.affordable, false);
    observe_ms_total += MsSince(observe_start);
  }
  double run_ms = MsSince(run_start);

  auto ckpt = RoundTripCheckpoint(config, campaign, agent, options);

  const DqnAgent::HierStats& stats = agent.hier_stats();
  const crowdrl::rl::ShortlistPruner::Stats& prune =
      agent.shortlist_pruner().stats();
  double scored_fraction =
      static_cast<double>(stats.scored_pairs) /
      (grid_pairs * static_cast<double>(stats.iterations ? stats.iterations : 1));
  double expanded_fraction =
      stats.live_buckets > 0
          ? static_cast<double>(stats.expanded_buckets) /
                static_cast<double>(stats.live_buckets)
          : 0.0;
  size_t peak_rss_kb = crowdrl::bench::PeakRssKb();

  std::printf("run: %.1f ms total (%.1f ms observe), %zu answers\n", run_ms,
              observe_ms_total, answers_recorded);
  std::printf("hier: %zu/%zu gated, %zu full fallbacks, scored %.3g pairs "
              "(%.3g of grid x iters), expanded buckets %.4f of live, "
              "%zu exact rows served\n",
              stats.gated_iterations, stats.iterations, stats.full_fallbacks,
              static_cast<double>(stats.scored_pairs), scored_fraction,
              expanded_fraction, prune.exact_rows);
  std::printf("checkpoint: %zu sections, %zu bytes (max section %zu), "
              "write %.1f ms, read %.1f ms, verified=%s\n",
              ckpt.sections, ckpt.file_bytes, ckpt.max_section_bytes,
              ckpt.write_ms, ckpt.read_ms, ckpt.verified ? "yes" : "no");
  std::printf("peak rss: %.1f MB\n", static_cast<double>(peak_rss_kb) / 1024.0);

  std::FILE* out = std::fopen(config.json.c_str(), "w");
  CROWDRL_CHECK(out != nullptr) << "cannot write " << config.json;
  std::fprintf(out, "{\n");
  crowdrl::bench::WriteBenchMeta(out, config.threads);
  std::fprintf(out,
               "  \"config\": {\"objects\": %zu, \"annotators\": %zu, "
               "\"iterations\": %d, \"k\": %d, \"pick\": %d, \"threads\": %d, "
               "\"seed\": %llu},\n",
               config.objects, config.annotators, config.iterations, config.k,
               config.pick, config.threads,
               static_cast<unsigned long long>(config.seed));
  std::fprintf(out, "  \"grid_pairs\": %.0f,\n", grid_pairs);
  std::fprintf(out, "  \"build_ms\": %.2f,\n", build_ms);
  std::fprintf(out, "  \"run_ms\": %.2f,\n", run_ms);
  std::fprintf(out, "  \"observe_ms\": %.2f,\n", observe_ms_total);
  std::fprintf(out, "  \"answers_recorded\": %zu,\n", answers_recorded);
  std::fprintf(out, "  \"select_ms_per_iter\": [");
  for (size_t i = 0; i < select_ms_per_iter.size(); ++i) {
    std::fprintf(out, "%s%.2f", i == 0 ? "" : ", ", select_ms_per_iter[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"select_minflt_per_iter\": [");
  for (size_t i = 0; i < select_minflt_per_iter.size(); ++i) {
    std::fprintf(out, "%s%ld", i == 0 ? "" : ", ", select_minflt_per_iter[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"scored_pairs_per_iter\": [");
  for (size_t i = 0; i < scored_per_iter.size(); ++i) {
    std::fprintf(out, "%s%zu", i == 0 ? "" : ", ", scored_per_iter[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"assignments_per_iter\": [");
  for (size_t i = 0; i < assignments_per_iter.size(); ++i) {
    std::fprintf(out, "%s%zu", i == 0 ? "" : ", ", assignments_per_iter[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out,
               "  \"hier\": {\"iterations\": %zu, \"gated_iterations\": %zu, "
               "\"full_fallbacks\": %zu, \"rounds\": %zu, \"scored_pairs\": "
               "%zu, \"enumerated_pairs\": %zu, \"rep_refreshes\": %zu, "
               "\"expanded_buckets\": %zu, \"live_buckets\": %zu, "
               "\"scored_fraction_of_grid\": %.3e, "
               "\"expanded_bucket_fraction\": %.6f, "
               "\"exact_rows\": %zu},\n",
               stats.iterations, stats.gated_iterations, stats.full_fallbacks,
               stats.rounds, stats.scored_pairs, stats.enumerated_pairs,
               stats.rep_refreshes, stats.expanded_buckets, stats.live_buckets,
               scored_fraction, expanded_fraction, prune.exact_rows);
  std::fprintf(out,
               "  \"checkpoint\": {\"file_bytes\": %zu, \"sections\": %zu, "
               "\"max_section_bytes\": %zu, \"write_ms\": %.2f, \"read_ms\": "
               "%.2f, \"verified\": %s},\n",
               ckpt.file_bytes, ckpt.sections, ckpt.max_section_bytes,
               ckpt.write_ms, ckpt.read_ms, ckpt.verified ? "true" : "false");
  std::fprintf(out, "  \"peak_rss_kb\": %zu\n", peak_rss_kb);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", config.json.c_str());

  // Budget gates (CI smoke): fail loudly, never silently.
  int violations = 0;
  if (!ckpt.verified) {
    std::fprintf(stderr, "FAIL: checkpoint round-trip not byte-identical\n");
    ++violations;
  }
  if (config.max_wall_ms > 0.0 && run_ms > config.max_wall_ms) {
    std::fprintf(stderr, "FAIL: run wall %.1f ms > budget %.1f ms\n", run_ms,
                 config.max_wall_ms);
    ++violations;
  }
  double rss_mb = static_cast<double>(peak_rss_kb) / 1024.0;
  if (config.max_rss_mb > 0.0 && rss_mb > config.max_rss_mb) {
    std::fprintf(stderr, "FAIL: peak RSS %.1f MB > budget %.1f MB\n", rss_mb,
                 config.max_rss_mb);
    ++violations;
  }
  return violations == 0 ? 0 : 1;
}
