// select-hier: the hierarchical selection engine and streamed checkpoints,
// with truth inference bypassed.
//
// A synthetic campaign just above the agent's hier_min_pairs threshold
// (32,768 objects x 128 annotators = 2^22 pairs) is driven through
// DqnAgent::SelectBatch / Observe directly; simulated annotators answer
// every assignment. The campaign is index-smooth — class beliefs follow a
// slow wave over the object index, qualities a slow wave over the
// annotator index — which is the regime the bucket x group tiling is
// built for. After the last iteration the answer log and the agent are
// written through io::SnapshotStreamWriter section by section, read back
// through io::SnapshotStreamReader, and the restored state must
// re-serialize to identical bytes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "crowd/answer_log.h"
#include "io/serializer.h"
#include "io/snapshot.h"
#include "math/matrix.h"
#include "perfbench.h"
#include "rl/dqn_agent.h"
#include "rl/state.h"
#include "util/random.h"

namespace perfbench {

namespace {

using crowdrl::Matrix;
using crowdrl::Rng;
using crowdrl::Status;
using crowdrl::crowd::AnswerLog;
using crowdrl::rl::Assignment;
using crowdrl::rl::DqnAgent;
using crowdrl::rl::DqnAgentOptions;
using crowdrl::rl::StateView;

constexpr size_t kObjects = 32768;
constexpr size_t kAnnotators = 128;
constexpr int kClasses = 3;
constexpr int kIterations = 4;
constexpr int kK = 3;
constexpr int kPick = 32;
constexpr int kTrajectories = 2;
// Selection time is dominated by the exact Q forward, so the inference
// pool gets the threads: 3 workers plus the calling thread.
constexpr int kAgentThreads = 1;
constexpr int kQThreads = 4;
constexpr int kMainTrack = 0;

/// The synthetic campaign state the agent's StateView borrows.
struct Campaign {
  AnswerLog answers{kObjects, kAnnotators};
  Matrix class_probs{kObjects, kClasses};
  std::vector<int> truths = std::vector<int>(kObjects, 0);
  std::vector<bool> labelled = std::vector<bool>(kObjects, false);
  std::vector<double> costs = std::vector<double>(kAnnotators, 1.0);
  std::vector<double> qualities = std::vector<double>(kAnnotators, 0.0);
  std::vector<bool> is_expert = std::vector<bool>(kAnnotators, false);
  std::vector<bool> affordable = std::vector<bool>(kAnnotators, true);
  double budget = static_cast<double>(kIterations) * kPick * kK;
  double spent = 0.0;
  size_t num_labelled = 0;

  explicit Campaign(uint64_t seed) {
    Rng rng(seed);
    const double two_pi = 2.0 * M_PI;
    // Wavelengths are fixed in objects / annotators, so one 1024-object
    // bucket spans ~0.1 rad of the class wave and tile boxes stay tight.
    for (size_t i = 0; i < kObjects; ++i) {
      const double phase = two_pi * static_cast<double>(i) / 1048576.0;
      double logits[kClasses];
      double max_logit = -1e300;
      for (int c = 0; c < kClasses; ++c) {
        logits[c] = 1.5 * std::sin(phase + 2.1 * c) +
                    0.002 * rng.Uniform(-1.0, 1.0);
        max_logit = std::max(max_logit, logits[c]);
      }
      double denom = 0.0;
      for (int c = 0; c < kClasses; ++c) {
        logits[c] = std::exp(logits[c] - max_logit);
        denom += logits[c];
      }
      for (int c = 0; c < kClasses; ++c) {
        class_probs.At(i, c) = logits[c] / denom;
        if (class_probs.At(i, c) > class_probs.At(i, truths[i])) {
          truths[i] = c;
        }
      }
    }
    for (size_t j = 0; j < kAnnotators; ++j) {
      const double phase = two_pi * static_cast<double>(j) / 4096.0;
      // The small monotone tilt keeps qualities pairwise distinct, so Q
      // scores never tie exactly at a selection cut.
      qualities[j] = 0.75 + 0.02 * std::sin(phase) +
                     1e-4 * static_cast<double>(j) / kAnnotators;
    }
  }

  StateView View() const {
    StateView view;
    view.answers = &answers;
    view.num_classes = kClasses;
    view.annotator_costs = &costs;
    view.annotator_qualities = &qualities;
    view.annotator_is_expert = &is_expert;
    view.class_probs = &class_probs;
    view.class_probs_version = 1;
    view.labelled = &labelled;
    view.budget_fraction_remaining = (budget - spent) / budget;
    view.fraction_labelled =
        static_cast<double>(num_labelled) / static_cast<double>(kObjects);
    view.max_cost = 1.0;
    return view;
  }
};

DqnAgentOptions AgentOptions(uint64_t seed) {
  DqnAgentOptions options;
  options.seed = seed;
  options.threads = kAgentThreads;
  options.q.threads = kQThreads;
  options.train_steps_per_observe = 2;
  return options;
}

/// Input seeds of one trajectory.
struct TrajectorySeeds {
  uint64_t campaign;
  uint64_t agent;
  uint64_t answers;
};

class SelectHier : public Workload {
 public:
  explicit SelectHier(const RunOptions& options)
      : checkpoint_path_(options.out_dir + "/select-hier-seed" +
                         std::to_string(options.seed) + ".snap") {
    for (int t = 0; t < kTrajectories; ++t) {
      const uint64_t base = DeriveSeed(options.seed, 100 + t);
      seeds_.push_back({DeriveSeed(base, 1), DeriveSeed(base, 2),
                        DeriveSeed(base, 3)});
    }
  }

  std::string ConfigJson() const override {
    std::string seeds;
    for (const TrajectorySeeds& s : seeds_) {
      seeds += (seeds.empty() ? "[" : ", [") + std::to_string(s.campaign) +
               ", " + std::to_string(s.agent) + ", " +
               std::to_string(s.answers) + "]";
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"objects\": %zu, \"annotators\": %zu, \"classes\": %d, "
                  "\"iterations\": %d, \"k\": %d, \"pick\": %d, "
                  "\"agent_threads\": %d, \"q_threads\": %d, "
                  "\"trajectories\": %d, \"seeds_campaign_agent_answers\": ",
                  kObjects, kAnnotators, kClasses, kIterations, kK, kPick,
                  kAgentThreads, kQThreads, kTrajectories);
    return buf + seeds + "]}";
  }

  int threads() const override { return kAgentThreads + kQThreads - 1; }
  int trajectories() const override { return kTrajectories; }

  double MeasureSetup() override {
    const int64_t start = NowNs();
    auto campaign = std::make_unique<Campaign>(seeds_[0].campaign);
    DqnAgent agent(AgentOptions(seeds_[0].agent));
    agent.BeginEpisode(kObjects, kAnnotators);
    return MsBetween(start, NowNs()) / 1e3;
  }

  EpisodeResult RunEpisode(int trajectory, SpanRecorder* spans) override;

 private:
  std::vector<TrajectorySeeds> seeds_;
  std::string checkpoint_path_;
};

struct CheckpointOutcome {
  bool written = false;
  bool restored = false;
  bool identical = false;
  double bytes = 0.0;
  double write_ms = 0.0;
  double read_ms = 0.0;
};

// Streams the answer log (one section per live shard) and the agent to
// `path`, restores both through the section reader, and compares the
// restored state's serialization with the original's.
CheckpointOutcome RoundTrip(const std::string& path, const Campaign& campaign,
                            const DqnAgent& agent,
                            const DqnAgentOptions& agent_options,
                            SpanRecorder* spans) {
  namespace io = crowdrl::io;
  CheckpointOutcome out;
  std::vector<size_t> live;
  for (size_t s = 0; s < campaign.answers.num_shards(); ++s) {
    if (!campaign.answers.ShardEmpty(s)) live.push_back(s);
  }
  int64_t start = NowNs();
  {
    ScopedSpan span(spans, kMainTrack, "io.checkpoint_write");
    io::SnapshotStreamWriter writer;
    Status status = writer.Open(path, live.size() + 1);
    for (size_t s : live) {
      if (!status.ok()) break;
      io::Writer payload;
      campaign.answers.SaveShardState(s, &payload);
      status = writer.AppendSection("answers/shard-" + std::to_string(s),
                                    payload);
    }
    if (status.ok()) {
      io::Writer payload;
      agent.SaveState(&payload);
      status = writer.AppendSection("agent", payload);
    }
    if (status.ok()) status = writer.Close();
    out.written = status.ok();
  }
  out.write_ms = MsBetween(start, NowNs());
  if (!out.written) return out;

  start = NowNs();
  AnswerLog restored_log(kObjects, kAnnotators);
  DqnAgent restored_agent(agent_options);
  {
    ScopedSpan span(spans, kMainTrack, "io.checkpoint_read");
    io::SnapshotStreamReader reader;
    Status status = reader.Open(path);
    std::string buffer;
    for (size_t s : live) {
      if (!status.ok()) break;
      io::Reader section;
      status = reader.ReadSection("answers/shard-" + std::to_string(s),
                                  &buffer, &section);
      if (status.ok()) status = restored_log.LoadShardState(&section);
    }
    if (status.ok()) {
      io::Reader section;
      status = reader.ReadSection("agent", &buffer, &section);
      if (status.ok()) status = restored_agent.LoadState(&section);
    }
    out.restored = status.ok();
  }
  out.read_ms = MsBetween(start, NowNs());
  out.bytes = static_cast<double>(
      std::ifstream(path, std::ios::binary | std::ios::ate).tellg());
  std::remove(path.c_str());
  if (!out.restored) return out;

  ScopedSpan span(spans, kMainTrack, "io.verify");
  bool identical = restored_log.total_answers() ==
                   campaign.answers.total_answers();
  for (size_t s : live) {
    io::Writer original, roundtrip;
    campaign.answers.SaveShardState(s, &original);
    restored_log.SaveShardState(s, &roundtrip);
    identical = identical && original.bytes() == roundtrip.bytes();
  }
  io::Writer original, roundtrip;
  agent.SaveState(&original);
  restored_agent.SaveState(&roundtrip);
  out.identical = identical && original.bytes() == roundtrip.bytes();
  return out;
}

EpisodeResult SelectHier::RunEpisode(int trajectory, SpanRecorder* spans) {
  EpisodeResult out;
  const TrajectorySeeds& seeds = seeds_[static_cast<size_t>(trajectory)];
  const int64_t setup_start = NowNs();
  auto campaign = std::make_unique<Campaign>(seeds.campaign);
  const DqnAgentOptions agent_options = AgentOptions(seeds.agent);
  DqnAgent agent(agent_options);
  agent.BeginEpisode(kObjects, kAnnotators);
  const int64_t run_start = NowNs();
  out.setup_s = MsBetween(setup_start, run_start) / 1e3;

  Rng answer_rng(seeds.answers);
  std::vector<double> select_ms;
  std::vector<double> observe_ms;
  bool full_batches = true;
  uint64_t fp = 0;
  CheckpointOutcome ckpt;
  {
    ScopedSpan episode(spans, kMainTrack, "episode");
    int64_t answers_in = 0;  // When the previous batch's answers were in.
    for (int iter = 0; iter < kIterations; ++iter) {
      const StateView view = campaign->View();
      std::vector<Assignment> batch;
      const int64_t select_start = NowNs();
      {
        ScopedSpan span(spans, kMainTrack, "rl.select");
        batch = agent.SelectBatch(view, kK, kPick, campaign->affordable);
      }
      const int64_t select_end = NowNs();
      select_ms.push_back(MsBetween(select_start, select_end));
      if (answers_in != 0) {
        out.task_waits_ms.push_back(MsBetween(answers_in, select_end));
      }
      full_batches = full_batches && batch.size() == kPick;
      {
        ScopedSpan span(spans, kMainTrack, "sim.answers");
        for (const Assignment& assignment : batch) {
          full_batches =
              full_batches && assignment.annotators.size() == size_t{kK};
          const int truth = campaign->truths[assignment.object];
          for (int annotator : assignment.annotators) {
            const int label =
                answer_rng.Bernoulli(campaign->qualities[annotator])
                    ? truth
                    : answer_rng.UniformInt(kClasses);
            campaign->answers.Record(assignment.object, annotator, label);
            campaign->spent += 1.0;
            ++out.attempted;
            fp = Mix(fp, static_cast<uint64_t>(assignment.object) * 131u +
                             static_cast<uint64_t>(annotator));
          }
          campaign->labelled[assignment.object] = true;
          ++campaign->num_labelled;
        }
      }
      answers_in = NowNs();
      const int64_t observe_start = answers_in;
      {
        ScopedSpan span(spans, kMainTrack, "rl.observe");
        agent.Observe(1.0, campaign->View(), campaign->affordable,
                      /*terminal=*/false);
      }
      observe_ms.push_back(MsBetween(observe_start, NowNs()));
    }
    ckpt = RoundTrip(checkpoint_path_, *campaign, agent, agent_options, spans);
  }
  out.run_s = MsBetween(run_start, NowNs()) / 1e3;
  out.attempted += 2;  // The checkpoint write and the restore.
  out.failed = (ckpt.written ? 0 : 1) + (ckpt.restored ? 0 : 1);

  // Majority vote over each selected object's answers against the hidden
  // class: the label quality the selected assignments bought.
  size_t voted = 0;
  size_t right = 0;
  for (size_t i = 0; i < kObjects; ++i) {
    if (!campaign->labelled[i]) continue;
    int votes[kClasses] = {0, 0, 0};
    for (size_t j = 0; j < kAnnotators; ++j) {
      const int answer =
          campaign->answers.Answer(static_cast<int>(i), static_cast<int>(j));
      if (answer != AnswerLog::kNoAnswer) ++votes[answer];
    }
    const int label = static_cast<int>(
        std::max_element(votes, votes + kClasses) - votes);
    ++voted;
    if (label == campaign->truths[i]) ++right;
  }
  out.answers = static_cast<double>(campaign->answers.total_answers());
  out.accuracy = voted > 0 ? static_cast<double>(right) / voted : 0.0;

  const DqnAgent::HierStats& hier = agent.hier_stats();
  for (uint64_t v : {hier.scored_pairs, hier.enumerated_pairs,
                     hier.rep_refreshes, hier.expanded_buckets}) {
    fp = Mix(fp, v);
  }
  out.fingerprint = fp;
  out.checks.emplace_back("hierarchical engine engaged", agent.HierEngaged());
  out.checks.emplace_back("every selection filled pick x k pairs",
                          full_batches);
  out.checks.emplace_back(
      "every selection gated or counted as a fallback",
      hier.iterations == static_cast<size_t>(kIterations) &&
          hier.gated_iterations + hier.full_fallbacks == hier.iterations);
  out.checks.emplace_back("checkpoint written and restored",
                          ckpt.written && ckpt.restored);
  out.checks.emplace_back("restored checkpoint re-serializes identically",
                          ckpt.identical);

  const double grid = static_cast<double>(kObjects * kAnnotators);
  const auto& cache = agent.score_cache().cumulative_stats();
  const auto& prune = agent.shortlist_pruner().stats();
  auto& L = out.layers;
  L["rl.rows_featurized"] = {static_cast<double>(agent.rows_featurized()),
                             "count"};
  const double lookups =
      static_cast<double>(cache.block_hits + cache.block_misses);
  L["rl.score_cache.hit_rate"] = {
      lookups > 0 ? static_cast<double>(cache.block_hits) / lookups : 0.0,
      "fraction"};
  const double selections =
      static_cast<double>(prune.pruned_iterations + prune.full_iterations);
  L["rl.prune.served_fraction"] = {
      selections > 0
          ? static_cast<double>(prune.pruned_iterations) / selections
          : 0.0,
      "fraction"};
  L["rl.prune.exact_rows"] = {static_cast<double>(prune.exact_rows), "count"};
  L["rl.prune.gate_fallbacks"] = {static_cast<double>(prune.gate_fallbacks),
                                  "count"};
  L["rl.hier.scored_pairs"] = {static_cast<double>(hier.scored_pairs),
                               "count"};
  L["rl.hier.scored_fraction"] = {
      static_cast<double>(hier.scored_pairs) / (grid * kIterations),
      "fraction"};
  L["rl.hier.expanded_bucket_fraction"] = {
      hier.live_buckets > 0 ? static_cast<double>(hier.expanded_buckets) /
                                  static_cast<double>(hier.live_buckets)
                            : 0.0,
      "fraction"};
  L["rl.hier.full_fallbacks"] = {static_cast<double>(hier.full_fallbacks),
                                 "count"};
  L["rl.hier.rep_refreshes"] = {static_cast<double>(hier.rep_refreshes),
                                "count"};
  L["io.checkpoint_bytes"] = {ckpt.bytes, "bytes"};
  if (spans->enabled()) {
    L["rl.select_first_ms"] = {select_ms.front(), "ms"};
    L["rl.select_ms.p50"] = {
        Median(std::vector<double>(select_ms.begin() + 1, select_ms.end())),
        "ms"};
    L["rl.observe_ms.p50"] = {Median(observe_ms), "ms"};
    L["io.checkpoint_write_ms"] = {ckpt.write_ms, "ms"};
    L["io.checkpoint_read_ms"] = {ckpt.read_ms, "ms"};
    const auto agg = spans->Aggregates();
    L["trace.unattributed_fraction"] = {
        agg.at("episode").self_ms / agg.at("episode").total_ms, "fraction"};
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakeSelectHier(const RunOptions& options) {
  return std::make_unique<SelectHier>(options);
}

}  // namespace perfbench
