// Property test for the checkpoint & resume subsystem: a run killed at
// iteration t and resumed from its newest checkpoint must finish
// bit-identically to the uninterrupted run — same labels, budget spent,
// iteration count, human answers, per-annotator qualities, and EM
// log-likelihood. Corrupt or mismatched checkpoints must be rejected with
// a descriptive Status, never a crash.

#include <fcntl.h>
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
#include "rl/pair_shards.h"
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
  EXPECT_TRUE(span_names.count("joint.phi_train"));
  EXPECT_TRUE(span_names.count("agent.bootstrap_q"));
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
  const std::string path = FreshDir("class_probs") + ".ckpt";
  ASSERT_TRUE(rs.WriteSnapshot(path).ok());
  io::SnapshotStreamReader snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
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

  // A checkpoint as (name, payload) sections, for structured mutations
  // that keep every frame and the CRC valid.
  using Sections = std::vector<std::pair<std::string, std::string>>;

  static Sections PristineSections() {
    const std::string path = *scratch_ + "/sections.ckpt";
    WriteRaw(*bytes_, path);
    io::SnapshotStreamReader reader;
    EXPECT_TRUE(reader.Open(path).ok());
    Sections sections;
    for (const std::string& name : reader.SectionNames()) {
      std::string payload;
      io::Reader ignored;
      EXPECT_TRUE(reader.ReadSection(name, &payload, &ignored).ok());
      sections.emplace_back(name, std::move(payload));
    }
    return sections;
  }

  // Encodes `sections` into a well-framed, CRC-valid checkpoint, loads it
  // and runs from it: the status of whichever step rejects it first.
  static Status Restore(const Sections& sections) {
    const std::string path = *scratch_ + "/mutated.ckpt";
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    EXPECT_GE(fd, 0);
    io::SnapshotEncoder encoder(fd, static_cast<uint32_t>(sections.size()));
    for (const auto& [name, payload] : sections) {
      encoder.BeginSection(name, payload.size());
      encoder.Put(payload.data(), payload.size());
    }
    EXPECT_TRUE(encoder.Finish());
    EXPECT_EQ(::close(fd), 0);
    CrowdRlFramework framework((CrowdRlConfig()));
    CROWDRL_RETURN_IF_ERROR(framework.LoadCheckpoint(path));
    const Workload& w = SharedWorkload();
    LabellingResult result;
    return framework.Run(w.dataset, w.pool, kBudget, kSeed, &result);
  }

  static void WriteRaw(const std::string& bytes, const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

// Structured mutations: each rewrites one section of a real checkpoint
// and re-encodes it with valid frames and CRC, so only the restore's own
// checks stand between the bytes and the run.
TEST_F(CorruptionTest, UnchangedSectionsRestore) {
  // The harness itself round-trips: the mutations below fail for what
  // they change, not for how they are re-encoded.
  const Sections sections = PristineSections();
  ASSERT_EQ(sections.size(), 6u);
  const Status status = Restore(sections);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(CorruptionTest, DroppedSectionIsRejected) {
  const Sections pristine = PristineSections();
  for (size_t drop = 0; drop < pristine.size(); ++drop) {
    Sections sections = pristine;
    sections.erase(sections.begin() + static_cast<std::ptrdiff_t>(drop));
    const Status status = Restore(sections);
    EXPECT_TRUE(status.IsNotFound())
        << "without " << pristine[drop].first << ": " << status.ToString();
  }
}

TEST_F(CorruptionTest, DuplicateSectionNameIsDataLoss) {
  const Sections pristine = PristineSections();
  for (const auto& section : pristine) {
    Sections sections = pristine;
    sections.push_back(section);
    const Status status = Restore(sections);
    EXPECT_TRUE(status.IsDataLoss())
        << "twice " << section.first << ": " << status.ToString();
  }
}

TEST_F(CorruptionTest, PayloadOneByteShortOrLongIsDataLoss) {
  const Sections pristine = PristineSections();
  for (size_t i = 0; i < pristine.size(); ++i) {
    Sections cut = pristine;
    cut[i].second.pop_back();
    Status status = Restore(cut);
    EXPECT_TRUE(status.IsDataLoss())
        << pristine[i].first << " cut: " << status.ToString();
    Sections grown = pristine;
    grown[i].second.push_back('\0');
    status = Restore(grown);
    EXPECT_TRUE(status.IsDataLoss())
        << pristine[i].first << " grown: " << status.ToString();
  }
}

// The agent's episode shape sizes its pair tables and must match every
// later view: an empty shape, or one other than the run's, is DataLoss
// before anything is sized from it.
TEST_F(CorruptionTest, AgentEpisodeShapeOtherThanTheRunsIsDataLoss) {
  const Workload& w = SharedWorkload();
  const size_t n = w.dataset.num_objects();
  const size_t m = w.pool.size();
  const Sections pristine = PristineSections();
  size_t agent = pristine.size();
  for (size_t i = 0; i < pristine.size(); ++i) {
    if (pristine[i].first == "agent") agent = i;
  }
  ASSERT_LT(agent, pristine.size());
  // The shape is two u64s followed by the UCB counts' shard stride.
  io::Writer field;
  field.WriteSize(n);
  field.WriteSize(m);
  field.WriteSize(rl::kPairShardObjects);
  const std::string& payload = pristine[agent].second;
  const size_t at = payload.find(field.bytes());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(payload.find(field.bytes(), at + 1), std::string::npos);

  const std::pair<size_t, size_t> shapes[] = {{0, m}, {n, 0}, {n - 1, m}};
  for (const auto& [objects, annotators] : shapes) {
    io::Writer shape;
    shape.WriteSize(objects);
    shape.WriteSize(annotators);
    Sections sections = pristine;
    sections[agent].second.replace(at, shape.size(), shape.bytes());
    const Status status = Restore(sections);
    EXPECT_TRUE(status.IsDataLoss())
        << objects << " x " << annotators << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace crowdrl::core
