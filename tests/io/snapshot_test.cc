#include "io/snapshot.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "classifier/mlp_classifier.h"
#include "core/environment.h"
#include "core/framework.h"
#include "crowd/answer_log.h"
#include "crowd/budget.h"
#include "crowd/confusion_matrix.h"
#include "io/checkpointable.h"
#include "math/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "rl/dqn_agent.h"
#include "rl/q_network.h"
#include "rl/replay_buffer.h"
#include "util/random.h"

namespace crowdrl::io {
namespace {

// The serialization surface is a concept, not a base class; assert here
// that every persistable component actually satisfies it, so a signature
// drift is a compile error in this test rather than a template error at a
// distant call site.
static_assert(Checkpointable<Matrix>);
static_assert(Checkpointable<nn::Mlp>);
static_assert(Checkpointable<nn::Sgd>);
static_assert(Checkpointable<nn::Adam>);
static_assert(Checkpointable<rl::ReplayBuffer>);
static_assert(Checkpointable<rl::QNetwork>);
static_assert(Checkpointable<rl::DqnAgent>);
static_assert(Checkpointable<crowd::AnswerLog>);
static_assert(Checkpointable<crowd::Budget>);
static_assert(Checkpointable<crowd::ConfusionMatrix>);
static_assert(Checkpointable<classifier::MlpClassifier>);
static_assert(Checkpointable<core::LabelState>);
static_assert(Checkpointable<core::Environment>);
// Rng deliberately is not Checkpointable (it lives below crowdrl_io);
// it round-trips through SaveStateString/LoadStateString instead.
static_assert(!Checkpointable<Rng>);

// Suffixed with the pid: ctest runs each test as its own process, and
// parallel siblings writing one shared path would race.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "crowdrl_snapshot_test_" +
         std::to_string(::getpid()) + "_" + name;
}

std::string FreshDir(const std::string& name) {
  std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

// Streams the two-section test snapshot to `path`.
void WriteTwoSections(const std::string& path) {
  SnapshotStreamWriter stream;
  ASSERT_TRUE(stream.Open(path, 2).ok());
  {
    Writer alpha;
    alpha.WriteU32(7);
    alpha.WriteDouble(2.5);
    ASSERT_TRUE(stream.AppendSection("alpha", alpha).ok());
  }  // Payload freed before the next section is even built.
  {
    Writer beta;
    beta.WriteString("payload");
    ASSERT_TRUE(stream.AppendSection("beta", beta).ok());
  }
  ASSERT_TRUE(stream.Close().ok());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The pristine two-section snapshot's bytes.
const std::string& TwoSectionBytes() {
  static const std::string* bytes = [] {
    const std::string path = TempPath("two_sections.ckpt");
    WriteTwoSections(path);
    return new std::string(ReadBytes(path));
  }();
  return *bytes;
}

// Opens `bytes` as a snapshot file through the one reader.
Status OpenBytes(const std::string& bytes, const std::string& name) {
  const std::string path = TempPath(name);
  WriteBytes(path, bytes);
  SnapshotStreamReader reader;
  return reader.Open(path);
}

// Rewrites the CRC trailer so only the deliberate edit is wrong.
void FixCrc(std::string* bytes) {
  const uint32_t crc = Crc32(bytes->data(), bytes->size() - 4);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[bytes->size() - 4 + i] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

void ExpectTwoSectionContent(const SnapshotStreamReader& snapshot) {
  EXPECT_EQ(snapshot.SectionNames(),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_TRUE(snapshot.HasSection("alpha"));
  EXPECT_FALSE(snapshot.HasSection("gamma"));

  std::string buffer;
  Reader reader;
  ASSERT_TRUE(snapshot.ReadSection("alpha", &buffer, &reader).ok());
  uint32_t u = 0;
  double d = 0.0;
  ASSERT_TRUE(reader.ReadU32(&u).ok());
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());
  EXPECT_EQ(u, 7u);
  EXPECT_EQ(d, 2.5);

  ASSERT_TRUE(snapshot.ReadSection("beta", &buffer, &reader).ok());
  std::string s;
  ASSERT_TRUE(reader.ReadString(&s).ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());
  EXPECT_EQ(s, "payload");

  EXPECT_TRUE(snapshot.ReadSection("gamma", &buffer, &reader).IsNotFound());
}

TEST(SnapshotTest, WriteFileReadFileRoundTrip) {
  const std::string path = TempPath("roundtrip.ckpt");
  WriteTwoSections(path);
  SnapshotStreamReader snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  ExpectTwoSectionContent(snapshot);
}

TEST(SnapshotTest, EmptySnapshotRoundTrips) {
  const std::string path = TempPath("empty.ckpt");
  SnapshotStreamWriter stream;
  ASSERT_TRUE(stream.Open(path, 0).ok());
  ASSERT_TRUE(stream.Close().ok());
  SnapshotStreamReader snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  EXPECT_TRUE(snapshot.SectionNames().empty());
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  SnapshotStreamReader snapshot;
  EXPECT_TRUE(snapshot.Open(TempPath("does_not_exist.ckpt")).IsNotFound());
}

TEST(SnapshotTest, BadMagicIsInvalidArgument) {
  std::string bytes = TwoSectionBytes();
  bytes[0] = 'X';
  EXPECT_TRUE(OpenBytes(bytes, "bad_magic.ckpt").IsInvalidArgument());
}

// A file that is not a snapshot at all is reported as foreign, not as a
// corrupt snapshot: the magic is checked before the CRC.
TEST(SnapshotTest, ForeignFileIsInvalidArgument) {
  std::string foreign(64, '\0');
  for (size_t i = 0; i < foreign.size(); ++i) {
    foreign[i] = static_cast<char>('a' + i % 26);
  }
  const Status status = OpenBytes(foreign, "foreign.bin");
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(OpenBytes("PK", "short_foreign.bin").IsInvalidArgument());
}

TEST(SnapshotTest, EveryBitFlipIsDetected) {
  // Every single-bit flip past the magic and version — the section count,
  // every frame, every payload byte and the CRC trailer — is DataLoss.
  // A flip inside the magic or version names another file or another
  // format, which the reader reports as InvalidArgument before the CRC.
  const std::string& pristine = TwoSectionBytes();
  constexpr size_t kIdentityBytes = sizeof(kSnapshotMagic) + 4;
  for (size_t pos = 0; pos < pristine.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = pristine;
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << bit));
      const Status status = OpenBytes(bytes, "bitflip.ckpt");
      if (pos < kIdentityBytes) {
        EXPECT_TRUE(status.IsInvalidArgument())
            << "bit " << bit << " of byte " << pos << ": "
            << status.ToString();
      } else {
        EXPECT_TRUE(status.IsDataLoss())
            << "bit " << bit << " of byte " << pos << ": "
            << status.ToString();
      }
    }
  }
}

TEST(SnapshotTest, TruncationIsDataLoss) {
  const std::string& pristine = TwoSectionBytes();
  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    const Status status = OpenBytes(pristine.substr(0, keep), "cut.ckpt");
    EXPECT_TRUE(status.IsDataLoss())
        << "truncated to " << keep << " bytes: " << status.ToString();
  }
}

TEST(SnapshotTest, TrailingGarbageIsDataLoss) {
  for (const char* extra : {"\x01", "extra"}) {
    const Status status =
        OpenBytes(TwoSectionBytes() + extra, "trailing.ckpt");
    EXPECT_TRUE(status.IsDataLoss()) << extra << ": " << status.ToString();
  }
}

TEST(SnapshotTest, NewerFormatVersionIsRejected) {
  std::string bytes = TwoSectionBytes();
  // Patch the version field (bytes 8..11, little-endian) to a future
  // version, then re-fix the CRC trailer so only the version is wrong.
  uint32_t future = kSnapshotFormatVersion + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[8 + i] = static_cast<char>((future >> (8 * i)) & 0xFF);
  }
  FixCrc(&bytes);
  const Status status = OpenBytes(bytes, "future.ckpt");
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

// The streamed bytes are exactly the documented layout, so the format is
// pinned independently of the one encoder that writes it.
TEST(SnapshotStreamTest, StreamedFileMatchesTheDocumentedLayout) {
  Writer expected;
  expected.WriteU32(kSnapshotFormatVersion);
  expected.WriteU32(2);
  expected.WriteU32(5);
  std::string layout = std::string(kSnapshotMagic, 8) + expected.bytes() +
                       "alpha";
  Writer alpha;
  alpha.WriteU64(12);
  alpha.WriteU32(7);
  alpha.WriteDouble(2.5);
  alpha.WriteU32(4);
  layout += alpha.bytes() + "beta";
  Writer beta;
  beta.WriteU64(8 + 7);
  beta.WriteString("payload");
  layout += beta.bytes();
  Writer trailer;
  trailer.WriteU32(Crc32(layout.data(), layout.size()));
  layout += trailer.bytes();
  EXPECT_EQ(TwoSectionBytes(), layout);
}

TEST(SnapshotStreamTest, StreamReaderRejectsCorruptionAndTruncation) {
  const std::string path = TempPath("stream_corrupt.ckpt");
  const std::string& pristine = TwoSectionBytes();

  SnapshotStreamReader reader;
  EXPECT_TRUE(reader.Open(TempPath("stream_missing.ckpt")).IsNotFound());

  std::string flipped = pristine;
  flipped[pristine.size() / 2] =
      static_cast<char>(flipped[pristine.size() / 2] ^ 0x10);
  WriteBytes(path, flipped);
  EXPECT_TRUE(reader.Open(path).IsDataLoss());
  EXPECT_TRUE(reader.SectionNames().empty());  // A failed Open empties it.

  WriteBytes(path, pristine.substr(0, pristine.size() / 2));
  EXPECT_TRUE(reader.Open(path).IsDataLoss());

  std::string bad_magic = pristine;
  bad_magic[0] = 'X';
  WriteBytes(path, bad_magic);
  EXPECT_TRUE(reader.Open(path).IsInvalidArgument());
}

// Section names are unique: a CRC-valid file that repeats one is corrupt,
// rather than a file whose second copy silently shadows the first.
TEST(SnapshotStreamTest, DuplicateSectionNameIsDataLoss) {
  const std::string path = TempPath("duplicate.ckpt");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  SnapshotEncoder encoder(fd, 2);
  for (uint32_t copy = 0; copy < 2; ++copy) {
    encoder.BeginSection("alpha", 4);
    encoder.PutU32(copy);
  }
  ASSERT_TRUE(encoder.Finish());
  ASSERT_EQ(::close(fd), 0);
  SnapshotStreamReader reader;
  const Status status = reader.Open(path);
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
}

// The reader keeps the file it verified: a snapshot renamed over the
// path afterwards (the writer's own tmp-and-rename) does not leak into
// ReadSection.
TEST(SnapshotStreamTest, ReadSectionReturnsTheVerifiedBytesAfterRename) {
  const std::string path = TempPath("renamed_over.ckpt");
  WriteTwoSections(path);
  SnapshotStreamReader reader;
  ASSERT_TRUE(reader.Open(path).ok());

  SnapshotStreamWriter replacement;
  ASSERT_TRUE(replacement.Open(path, 2).ok());
  Writer other;
  other.WriteU32(99);
  other.WriteDouble(-1.0);
  ASSERT_TRUE(replacement.AppendSection("alpha", other).ok());
  Writer empty;
  ASSERT_TRUE(replacement.AppendSection("beta", empty).ok());
  ASSERT_TRUE(replacement.Close().ok());

  ExpectTwoSectionContent(reader);
}

TEST(SnapshotEncoderTest, BrokenFramingPromiseFailsFinish) {
  const std::string path = TempPath("encoder.ckpt");
  auto finish = [&](uint32_t sections, auto&& body) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    EXPECT_GE(fd, 0);
    SnapshotEncoder encoder(fd, sections);
    body(encoder);
    const bool ok = encoder.Finish();
    ::close(fd);
    return ok;
  };
  EXPECT_TRUE(finish(1, [](SnapshotEncoder& e) {
    e.BeginSection("s", 2);
    e.PutU16(1);
  }));
  // Fewer sections than declared, a short payload, a long payload and an
  // undeclared section all fail.
  EXPECT_FALSE(finish(2, [](SnapshotEncoder& e) {
    e.BeginSection("s", 2);
    e.PutU16(1);
  }));
  EXPECT_FALSE(finish(1, [](SnapshotEncoder& e) {
    e.BeginSection("s", 4);
    e.PutU16(1);
  }));
  EXPECT_FALSE(finish(1, [](SnapshotEncoder& e) {
    e.BeginSection("s", 1);
    e.PutU16(1);
  }));
  EXPECT_FALSE(finish(1, [](SnapshotEncoder& e) {
    e.BeginSection("s", 0);
    e.BeginSection("t", 0);
  }));
}

TEST(SnapshotEncoderTest, FailedWriteFailsFinish) {
  const std::string path = TempPath("readonly.ckpt");
  WriteBytes(path, "");
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  SnapshotEncoder encoder(fd, 0);
  EXPECT_FALSE(encoder.Finish());
  EXPECT_NE(encoder.write_errno(), 0);
  ::close(fd);
}

TEST(SnapshotStreamTest, AbandonedWriterLeavesNoFiles) {
  std::string path = TempPath("abandoned.ckpt");
  std::filesystem::remove(path);
  {
    SnapshotStreamWriter stream;
    ASSERT_TRUE(stream.Open(path, 2).ok());
    Writer alpha;
    alpha.WriteU32(1);
    ASSERT_TRUE(stream.AppendSection("alpha", alpha).ok());
    // Destroyed without Close(): neither the target nor the tmp may
    // exist afterwards.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// The scale checkpoint pattern: every AnswerLog shard streams out as its
// own section and back in one at a time, and the reassembled log matches
// a monolithic round-trip exactly.
TEST(SnapshotStreamTest, ShardedAnswerLogRoundTripsSectionBySection) {
  constexpr size_t kObjects = 10000;
  constexpr size_t kAnnotators = 50;
  constexpr size_t kShardObjects = 1024;
  crowd::AnswerLog log(kObjects, kAnnotators, kShardObjects);
  Rng rng(4242);
  for (int r = 0; r < 500; ++r) {
    // Touch a few scattered ranges, leaving most shards untouched.
    int object = rng.UniformInt(static_cast<int>(kObjects / 20)) +
                 (r % 3) * 4000;
    int annotator = rng.UniformInt(static_cast<int>(kAnnotators));
    if (log.HasAnswer(object, annotator)) continue;
    log.Record(object, annotator, rng.UniformInt(3));
  }

  std::vector<size_t> live_shards;
  for (size_t s = 0; s < log.num_shards(); ++s) {
    if (!log.ShardEmpty(s)) live_shards.push_back(s);
  }
  ASSERT_GT(live_shards.size(), 1u);
  ASSERT_LT(live_shards.size(), log.num_shards());  // Some stayed empty.

  std::string path = TempPath("sharded_log.ckpt");
  {
    SnapshotStreamWriter stream;
    ASSERT_TRUE(stream.Open(path, live_shards.size()).ok());
    for (size_t s : live_shards) {
      Writer payload;
      log.SaveShardState(s, &payload);
      ASSERT_TRUE(
          stream
              .AppendSection("answers/shard-" + std::to_string(s), payload)
              .ok());
    }
    ASSERT_TRUE(stream.Close().ok());
  }

  crowd::AnswerLog restored(kObjects, kAnnotators, kShardObjects);
  {
    SnapshotStreamReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    for (size_t s : live_shards) {
      std::string buffer;
      Reader section;
      ASSERT_TRUE(reader
                      .ReadSection("answers/shard-" + std::to_string(s),
                                   &buffer, &section)
                      .ok());
      ASSERT_TRUE(restored.LoadShardState(&section).ok());
    }
  }

  EXPECT_EQ(restored.total_answers(), log.total_answers());
  for (size_t i = 0; i < kObjects; ++i) {
    const int object = static_cast<int>(i);
    EXPECT_EQ(restored.AnswerCount(object), log.AnswerCount(object));
    for (size_t j = 0; j < kAnnotators; ++j) {
      EXPECT_EQ(restored.HasAnswer(object, static_cast<int>(j)),
                log.HasAnswer(object, static_cast<int>(j)));
    }
  }
}

TEST(CheckpointDirTest, FileNamesSortByIteration) {
  EXPECT_EQ(CheckpointFileName(7), "ckpt-000000000007.ckpt");
  EXPECT_LT(CheckpointFileName(9), CheckpointFileName(10));
  EXPECT_LT(CheckpointFileName(99), CheckpointFileName(100));
}

// Streams a one-section snapshot recording `t` (the checkpoint writer
// WriteCheckpointRotating hands each path to).
Status WriteMeta(size_t t, const std::string& path) {
  SnapshotStreamWriter stream;
  CROWDRL_RETURN_IF_ERROR(stream.Open(path, 1));
  Writer meta;
  meta.WriteSize(t);
  CROWDRL_RETURN_IF_ERROR(stream.AppendSection("meta", meta));
  return stream.Close();
}

Status WriteRotating(const std::string& dir, size_t t, size_t keep_last) {
  return WriteCheckpointRotating(
      dir, t, keep_last,
      [t](const std::string& path) { return WriteMeta(t, path); });
}

TEST(CheckpointDirTest, RotationKeepsNewestK) {
  std::string dir = FreshDir("rotation");
  for (size_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(WriteRotating(dir, t, 2).ok());
  }
  std::string latest;
  ASSERT_TRUE(FindLatestCheckpoint(dir, &latest).ok());
  EXPECT_NE(latest.find(CheckpointFileName(5)), std::string::npos);

  // Only the newest two survive, and the oldest survivor is iteration 4.
  SnapshotStreamReader snapshot;
  EXPECT_TRUE(
      snapshot.Open(dir + "/" + CheckpointFileName(3)).IsNotFound());
  EXPECT_TRUE(snapshot.Open(dir + "/" + CheckpointFileName(4)).ok());
}

TEST(CheckpointDirTest, KeepLastZeroKeepsEverything) {
  std::string dir = FreshDir("keep_all");
  for (size_t t = 1; t <= 4; ++t) {
    ASSERT_TRUE(WriteRotating(dir, t, 0).ok());
  }
  SnapshotStreamReader snapshot;
  for (size_t t = 1; t <= 4; ++t) {
    EXPECT_TRUE(snapshot.Open(dir + "/" + CheckpointFileName(t)).ok())
        << "iteration " << t;
  }
}

TEST(CheckpointDirTest, FindLatestOnMissingOrEmptyDirIsNotFound) {
  std::string latest;
  EXPECT_TRUE(
      FindLatestCheckpoint(TempPath("never_created"), &latest).IsNotFound());
  EXPECT_TRUE(FindLatestCheckpoint("", &latest).IsInvalidArgument());
}

TEST(CheckpointDirTest, AtomicWriteLeavesNoTmpFile) {
  std::string path = TempPath("atomic.ckpt");
  WriteTwoSections(path);
  SnapshotStreamReader snapshot;
  EXPECT_TRUE(snapshot.Open(path).ok());
  EXPECT_TRUE(snapshot.Open(path + ".tmp").IsNotFound());
}

}  // namespace
}  // namespace crowdrl::io
