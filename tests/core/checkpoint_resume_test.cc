// Property test for the checkpoint & resume subsystem: a run killed at
// iteration t and resumed from its newest checkpoint must finish
// bit-identically to the uninterrupted run — same labels, budget spent,
// iteration count, human answers, per-annotator qualities, and EM
// log-likelihood. Corrupt or mismatched checkpoints must be rejected with
// a descriptive Status, never a crash.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/crowdrl.h"
#include "core/run_state.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/testing/mini_json.h"

namespace crowdrl::core {
namespace {

namespace fs = std::filesystem;

constexpr double kBudget = 500.0;
constexpr uint64_t kSeed = 9;

struct Workload {
  data::Dataset dataset;
  std::vector<crowd::Annotator> pool;

  Workload() {
    data::GaussianMixtureOptions options;
    options.num_objects = 150;
    options.view = {10, 2.6, 0.5};
    options.seed = 3;
    dataset = data::MakeGaussianMixture(options);
    crowd::PoolOptions pool_options;
    pool_options.num_workers = 3;
    pool_options.num_experts = 2;
    pool_options.seed = 4;
    pool = crowd::MakePool(pool_options);
  }
};

const Workload& SharedWorkload() {
  static const Workload* workload = new Workload();
  return *workload;
}

// The uninterrupted run every interrupted+resumed run must reproduce.
const LabellingResult& Reference() {
  static const LabellingResult* reference = [] {
    auto* result = new LabellingResult();
    const Workload& w = SharedWorkload();
    CrowdRlFramework framework((CrowdRlConfig()));
    Status status = framework.Run(w.dataset, w.pool, kBudget, kSeed, result);
    CROWDRL_CHECK(status.ok()) << status.ToString();
    return result;
  }();
  return *reference;
}

std::string FreshDir(const std::string& name) {
  // Suffix with the pid: ctest runs each test of this binary as its own
  // process, and parallel siblings racing remove_all on a shared path
  // can yank a directory out from under another process's checkpoint.
  std::string dir = ::testing::TempDir() + "crowdrl_resume_test_" + name +
                    "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

CrowdRlConfig CheckpointingConfig(const std::string& dir,
                                  size_t halt_after) {
  CrowdRlConfig config;
  config.checkpoint_dir = dir;
  config.checkpoint_every_n_iterations = 1;
  config.halt_after_iterations = halt_after;
  return config;
}

// Runs with checkpoints + a simulated crash after `halt_after`
// iterations; returns the directory holding the checkpoints.
std::string CrashAt(size_t halt_after, const std::string& dir_name) {
  const Workload& w = SharedWorkload();
  std::string dir = FreshDir(dir_name);
  CrowdRlFramework framework(CheckpointingConfig(dir, halt_after));
  LabellingResult ignored;
  Status status = framework.Run(w.dataset, w.pool, kBudget, kSeed, &ignored);
  EXPECT_TRUE(status.IsInterrupted()) << status.ToString();
  return dir;
}

void ExpectBitIdentical(const LabellingResult& resumed) {
  const LabellingResult& reference = Reference();
  EXPECT_EQ(resumed.labels, reference.labels);
  EXPECT_EQ(resumed.sources, reference.sources);
  EXPECT_EQ(resumed.budget_spent, reference.budget_spent);
  EXPECT_EQ(resumed.iterations, reference.iterations);
  EXPECT_EQ(resumed.human_answers, reference.human_answers);
  EXPECT_EQ(resumed.final_annotator_qualities,
            reference.final_annotator_qualities);
  EXPECT_EQ(resumed.final_log_likelihood, reference.final_log_likelihood);
}

class ResumeCutTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ResumeCutTest, ResumeReproducesUninterruptedRunBitForBit) {
  const size_t cut = GetParam();
  // Make sure the cut lands strictly mid-run.
  ASSERT_GT(Reference().iterations, cut);

  const Workload& w = SharedWorkload();
  std::string dir =
      CrashAt(cut, "cut" + std::to_string(cut));

  CrowdRlConfig config = CheckpointingConfig(dir, /*halt_after=*/0);
  config.resume = true;
  CrowdRlFramework framework(config);
  LabellingResult resumed;
  ASSERT_TRUE(
      framework.Run(w.dataset, w.pool, kBudget, kSeed, &resumed).ok());
  ExpectBitIdentical(resumed);
}

INSTANTIATE_TEST_SUITE_P(Cuts, ResumeCutTest, ::testing::Values(1, 2, 4));

// The observability contract (DESIGN.md §10): a fully instrumented run —
// metrics, tracing, JSONL sink, trace export — produces bit-identical
// results to an uninstrumented one, and its per-iteration JSONL and
// Chrome trace artifacts are well-formed with the key series populated.
TEST(ObservabilityTest, InstrumentedRunIsBitIdenticalAndArtifactsParse) {
  // Force the reference to be computed with hooks off before enabling.
  const LabellingResult& reference = Reference();
  const Workload& w = SharedWorkload();
  std::string dir = FreshDir("obs");
  fs::create_directories(dir);
  std::string metrics_path = dir + "/run_metrics.jsonl";
  std::string trace_path = dir + "/trace.json";

  CrowdRlConfig config;
  config.obs.enabled = true;
  config.obs.tracing = true;
  config.obs.metrics_jsonl_path = metrics_path;
  config.obs.trace_json_path = trace_path;
  CrowdRlFramework framework(config);
  LabellingResult observed;
  Status status = framework.Run(w.dataset, w.pool, kBudget, kSeed, &observed);
  obs::SetTracing(false);
  obs::SetEnabled(false);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectBitIdentical(observed);

  // One parseable record per labelling iteration, ending at the final
  // iteration count, with the acceptance series present: framework
  // counters, the ScoreCache hit-rate, and the ThreadPool queue depth.
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t records = 0;
  crowdrl::testing::JsonValue last;
  while (std::getline(in, line)) {
    ++records;
    crowdrl::testing::JsonValue record;
    ASSERT_TRUE(crowdrl::testing::MiniJsonParser::Parse(line, &record))
        << "record " << records << ": " << line;
    EXPECT_EQ(record["iteration"].number, static_cast<double>(records));
    last = std::move(record);
  }
  ASSERT_GT(records, 0u);
  // A record is written at the end of every completed iteration; the very
  // last counted iteration may end the loop early (nothing left to
  // assign) without completing, so allow one less record than the total.
  EXPECT_GE(records + 1, reference.iterations);
  EXPECT_LE(records, reference.iterations);
  EXPECT_GE(last["counters"]["crowdrl.framework.iterations"].number,
            static_cast<double>(records));
  EXPECT_GT(last["counters"]["crowdrl.framework.objects_selected"].number,
            0.0);
  EXPECT_GT(
      last["counters"]["crowdrl.framework.assignments_executed"].number,
      0.0);
  EXPECT_GT(last["counters"]["crowdrl.framework.em_iterations"].number,
            0.0);
  EXPECT_GT(last["counters"]["crowdrl.scorecache.syncs"].number, 0.0);
  EXPECT_TRUE(last["gauges"].Has("crowdrl.scorecache.hit_rate"));
  EXPECT_TRUE(last["gauges"].Has("crowdrl.threadpool.queue_depth"));
  EXPECT_TRUE(last["gauges"].Has("crowdrl.framework.log_likelihood"));
  EXPECT_TRUE(last["histograms"].Has("crowdrl.threadpool.task_run_ns"));

  // The exported trace parses and carries the run-loop spans.
  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::ostringstream trace_text;
  trace_text << trace_in.rdbuf();
  crowdrl::testing::JsonValue trace;
  ASSERT_TRUE(
      crowdrl::testing::MiniJsonParser::Parse(trace_text.str(), &trace));
  ASSERT_TRUE(trace.Has("traceEvents"));
  ASSERT_GT(trace["traceEvents"].array.size(), 0u);
  std::set<std::string> span_names;
  for (const auto& event : trace["traceEvents"].array) {
    span_names.insert(event["name"].str);
  }
  EXPECT_TRUE(span_names.count("framework.iteration"));
  EXPECT_TRUE(span_names.count("framework.inference"));
  EXPECT_TRUE(span_names.count("joint.e_step"));
  EXPECT_TRUE(span_names.count("scorecache.sync"));
  obs::TraceRecorder::Get().Clear();
}

TEST(CheckpointResumeTest, ExplicitSaveAndLoadCheckpoint) {
  const Workload& w = SharedWorkload();
  std::string dir = FreshDir("explicit");
  std::string path = dir + "/manual.ckpt";
  {
    // Pause (no periodic checkpoints) and save explicitly.
    CrowdRlConfig config;
    config.halt_after_iterations = 2;
    CrowdRlFramework framework(config);
    LabellingResult ignored;
    ASSERT_TRUE(framework.Run(w.dataset, w.pool, kBudget, kSeed, &ignored)
                    .IsInterrupted());
    ASSERT_TRUE(framework.SaveCheckpoint(path).ok());
  }
  CrowdRlFramework framework((CrowdRlConfig()));
  ASSERT_TRUE(framework.LoadCheckpoint(path).ok());
  LabellingResult resumed;
  ASSERT_TRUE(
      framework.Run(w.dataset, w.pool, kBudget, kSeed, &resumed).ok());
  ExpectBitIdentical(resumed);
}

TEST(CheckpointResumeTest, SaveCheckpointWithoutPausedRunFails) {
  CrowdRlFramework framework((CrowdRlConfig()));
  EXPECT_TRUE(framework
                  .SaveCheckpoint(FreshDir("no_run") + "/x.ckpt")
                  .IsFailedPrecondition());
}

TEST(CheckpointResumeTest, ResumeWithEmptyDirRunsFresh) {
  // resume=true with no checkpoint present is not an error — a first run
  // under a restart-on-failure supervisor starts from scratch.
  const Workload& w = SharedWorkload();
  CrowdRlConfig config = CheckpointingConfig(FreshDir("empty"), 0);
  config.checkpoint_every_n_iterations = 0;
  config.resume = true;
  CrowdRlFramework framework(config);
  LabellingResult result;
  ASSERT_TRUE(
      framework.Run(w.dataset, w.pool, kBudget, kSeed, &result).ok());
  ExpectBitIdentical(result);
}

TEST(CheckpointResumeTest, RotationKeepsLastK) {
  std::string dir = CrashAt(5, "rotation");
  size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") ++count;
  }
  // CrowdRlConfig::checkpoint_keep_last defaults to 3.
  EXPECT_EQ(count, 3u);
}

TEST(CheckpointResumeTest, MismatchedRunIsRejected) {
  const Workload& w = SharedWorkload();
  std::string dir = CrashAt(2, "mismatch");
  CrowdRlConfig config = CheckpointingConfig(dir, 0);
  config.resume = true;
  {
    // Same workload, different seed: the checkpoint belongs to another
    // random stream and silently diverging would be worse than failing.
    CrowdRlFramework framework(config);
    LabellingResult result;
    EXPECT_TRUE(
        framework.Run(w.dataset, w.pool, kBudget, kSeed + 1, &result)
            .IsInvalidArgument());
  }
  {
    // Different budget.
    CrowdRlFramework framework(config);
    LabellingResult result;
    EXPECT_TRUE(
        framework.Run(w.dataset, w.pool, kBudget + 1.0, kSeed, &result)
            .IsInvalidArgument());
  }
}

// class_probs is not serialized: a restore recomputes it from phi, so the
// checkpoint's flag must agree with whether its phi is trained. A
// checkpoint that disagrees is rejected instead of restoring a state that
// enrichment and Finalize would CHECK-fail on.
TEST(CheckpointResumeTest, ClassProbsFlagDisagreeingWithPhiIsDataLoss) {
  const Workload& w = SharedWorkload();
  CrowdRlConfig config;
  RunState rs(&config, &w.dataset, &w.pool, kBudget, kSeed);
  ASSERT_TRUE(rs.Bootstrap().ok());
  ASSERT_TRUE(rs.phi.is_trained());
  ASSERT_TRUE(rs.have_probs);
  rs.have_probs = false;
  io::SnapshotBuilder builder;
  rs.BuildSnapshot(&builder);
  io::Snapshot snapshot;
  ASSERT_TRUE(io::Snapshot::Parse(builder.Serialize(), &snapshot).ok());
  RunState fresh(&config, &w.dataset, &w.pool, kBudget, kSeed);
  EXPECT_TRUE(fresh.ApplyRestore(snapshot).IsDataLoss());
}

class CorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::string dir = CrashAt(2, "corruption");
    std::string path;
    ASSERT_TRUE(io::FindLatestCheckpoint(dir, &path).ok());
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes_ = new std::string((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    scratch_ = new std::string(FreshDir("corruption_scratch"));
    fs::create_directories(*scratch_);
  }

  static Status LoadBytes(const std::string& bytes,
                          const std::string& name) {
    std::string path = *scratch_ + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    CrowdRlFramework framework((CrowdRlConfig()));
    return framework.LoadCheckpoint(path);
  }

  static std::string* bytes_;
  static std::string* scratch_;
};

std::string* CorruptionTest::bytes_ = nullptr;
std::string* CorruptionTest::scratch_ = nullptr;

TEST_F(CorruptionTest, PristineCheckpointLoads) {
  EXPECT_TRUE(LoadBytes(*bytes_, "pristine.ckpt").ok());
}

TEST_F(CorruptionTest, TruncatedCheckpointIsDataLoss) {
  EXPECT_TRUE(LoadBytes(bytes_->substr(0, bytes_->size() / 2),
                        "truncated.ckpt")
                  .IsDataLoss());
}

TEST_F(CorruptionTest, BitFlipIsDataLoss) {
  std::string corrupt = *bytes_;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_TRUE(LoadBytes(corrupt, "bitflip.ckpt").IsDataLoss());
}

TEST_F(CorruptionTest, ForeignFileIsInvalidArgument) {
  std::string corrupt = *bytes_;
  corrupt[0] = 'Z';  // Break the magic.
  EXPECT_TRUE(LoadBytes(corrupt, "foreign.ckpt").IsInvalidArgument());
}

}  // namespace
}  // namespace crowdrl::core
