#ifndef CROWDRL_IO_SNAPSHOT_H_
#define CROWDRL_IO_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/serializer.h"
#include "util/status.h"

namespace crowdrl::io {

/// Snapshot container format (all integers little-endian):
///
///   | bytes | field                                    |
///   |-------|------------------------------------------|
///   | 8     | magic "CRWDSNAP"                         |
///   | 4     | format version (u32, currently 1)        |
///   | 4     | section count (u32)                      |
///   | ...   | sections, each:                          |
///   |       |   u32 name length + name bytes           |
///   |       |   u64 payload length + payload bytes     |
///   | 4     | CRC32 over every preceding byte          |
///
/// SnapshotEncoder is the only code that writes this layout and
/// SnapshotStreamReader the only code that parses it. Checkpoints, the
/// scale benches' shard streams and the flight recorder's crash dump all
/// go through the pair.
inline constexpr char kSnapshotMagic[8] = {'C', 'R', 'W', 'D',
                                           'S', 'N', 'A', 'P'};
inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// \brief The container encoder: header, section frames, payload bytes
/// and the CRC trailer, written to a caller-owned file descriptor through
/// a fixed in-object buffer with a running CRC.
///
/// It never allocates, locks or touches stdio, so the fatal-signal flight
/// dump runs it inside a signal handler; SnapshotStreamWriter wraps it
/// with tmp-and-rename for checkpoints. The encoder holds the caller to
/// the framing it declared: exactly `section_count` sections, each of
/// exactly its declared payload size. A broken promise or a failed write
/// makes Finish() return false instead of leaving a file that parses.
class SnapshotEncoder {
 public:
  /// Buffers the container header for `fd` (not owned, not closed).
  SnapshotEncoder(int fd, uint32_t section_count);
  SnapshotEncoder(const SnapshotEncoder&) = delete;
  SnapshotEncoder& operator=(const SnapshotEncoder&) = delete;

  /// Starts the next section frame; exactly `payload_size` bytes of Put*
  /// calls must follow before the next section or Finish().
  void BeginSection(std::string_view name, uint64_t payload_size);

  /// Payload bytes; integers little-endian, strings in Writer::WriteString
  /// framing (u64 length + bytes).
  void Put(const void* data, size_t size);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutString(std::string_view s);

  /// Appends the CRC trailer and drains the buffer. True when every
  /// declared section and byte went out and every write succeeded.
  bool Finish();

  /// errno of the first failed write, 0 when none failed.
  int write_errno() const { return write_errno_; }

 private:
  static constexpr size_t kBufferBytes = 4096;

  void Emit(const void* data, size_t size);    // CRC'd container bytes.
  void Append(const void* data, size_t size);  // Raw buffered bytes.
  void Drain(const char* data, size_t size);

  int fd_;
  uint32_t sections_left_;
  uint64_t payload_left_ = 0;
  uint32_t crc_ = 0;
  bool ok_ = true;
  int write_errno_ = 0;
  size_t buffered_ = 0;
  char buffer_[kBufferBytes];
};

/// \brief Writes a snapshot file one section at a time. Only one
/// section's payload is ever resident: a sharded checkpoint appends each
/// state shard as its own section and frees it before building the next,
/// so peak memory tracks the largest section, never the full state.
///
/// Bytes go to `path + ".tmp"`, and the tmp file is renamed over `path`
/// only by a successful Close(), so a crash mid-write never leaves a
/// half-written file at `path`; an abandoned writer removes its tmp file.
class SnapshotStreamWriter {
 public:
  SnapshotStreamWriter() = default;
  ~SnapshotStreamWriter();
  SnapshotStreamWriter(const SnapshotStreamWriter&) = delete;
  SnapshotStreamWriter& operator=(const SnapshotStreamWriter&) = delete;

  /// Opens `path + ".tmp"` (creating parent directories) and starts the
  /// container header. The section count is declared up front: the
  /// header precedes the sections and the CRC covers it.
  Status Open(const std::string& path, size_t section_count);

  /// Appends one section (name + length-prefixed payload). The payload
  /// writer can be destroyed as soon as this returns. Section names must
  /// be unique; exactly `section_count` sections precede Close().
  Status AppendSection(const std::string& name, const Writer& payload);

  /// Writes the CRC trailer and atomically renames the tmp file over the
  /// target path.
  Status Close();

 private:
  void Abandon();  // Closes and removes the tmp file.

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  size_t declared_sections_ = 0;
  std::vector<std::string> section_names_;
  std::optional<SnapshotEncoder> encoder_;
};

/// \brief Verified random-access reader over a snapshot file; it never
/// loads the whole file.
///
/// Open() checks the magic (a foreign file is InvalidArgument) and the
/// format version (a newer or older one is InvalidArgument rather than
/// misread) before it computes the CRC in fixed-size chunks; a truncated
/// file, a flipped bit past the version, trailing bytes, broken framing
/// or a duplicate section name are DataLoss. The reader keeps the
/// verified file open, so ReadSection() returns the bytes Open() checked
/// even after another snapshot is renamed over the path. Peak memory is
/// one chunk plus the section being read.
class SnapshotStreamReader {
 public:
  SnapshotStreamReader() = default;
  ~SnapshotStreamReader();
  SnapshotStreamReader(const SnapshotStreamReader&) = delete;
  SnapshotStreamReader& operator=(const SnapshotStreamReader&) = delete;

  /// NotFound when `path` cannot be opened; see the class comment for the
  /// rest. A failed Open leaves the reader empty.
  Status Open(const std::string& path);

  bool HasSection(const std::string& name) const;
  std::vector<std::string> SectionNames() const;

  /// Loads one section's payload into `buffer` and positions `reader`
  /// over it (the reader borrows `buffer`, which must outlive it).
  /// NotFound for a missing section name.
  Status ReadSection(const std::string& name, std::string* buffer,
                     Reader* reader) const;

 private:
  struct SectionSpan {
    std::string name;
    size_t offset = 0;
    size_t length = 0;
  };

  Status Index(size_t size);  // Verifies the open file; fills sections_.
  Status ReadAt(size_t offset, void* data, size_t size) const;
  void Close();

  std::string path_;
  int fd_ = -1;
  std::vector<SectionSpan> sections_;
};

/// Checkpoint-directory conventions: files are named
/// `ckpt-<iteration, zero-padded>.ckpt` so lexicographic order equals
/// iteration order.
std::string CheckpointFileName(size_t iteration);

/// Hands `dir/ckpt-<iteration>.ckpt` to `write`, which streams the
/// snapshot there through a SnapshotStreamWriter (creating `dir` if
/// needed), then deletes the oldest checkpoints beyond `keep_last` (0
/// keeps everything).
Status WriteCheckpointRotating(
    const std::string& dir, size_t iteration, size_t keep_last,
    const std::function<Status(const std::string& path)>& write);

/// Finds the newest `ckpt-*.ckpt` in `dir`; NotFound when the directory
/// is missing or holds no checkpoints.
Status FindLatestCheckpoint(const std::string& dir, std::string* path_out);

}  // namespace crowdrl::io

#endif  // CROWDRL_IO_SNAPSHOT_H_
