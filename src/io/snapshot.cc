#include "io/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace crowdrl::io {

namespace fs = std::filesystem;

namespace {

template <typename T>
void StoreLittleEndian(T v, unsigned char* out) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFFu);
  }
}

uint64_t LoadLittleEndian(const unsigned char* in, size_t bytes) {
  uint64_t v = 0;
  for (size_t i = 0; i < bytes; ++i) v |= uint64_t{in[i]} << (8 * i);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotEncoder. Everything here must stay callable from a signal
// handler: no allocation, no locks, no stdio.

SnapshotEncoder::SnapshotEncoder(int fd, uint32_t section_count)
    : fd_(fd), sections_left_(section_count) {
  unsigned char header[8];
  StoreLittleEndian(kSnapshotFormatVersion, header);
  StoreLittleEndian(section_count, header + 4);
  Emit(kSnapshotMagic, sizeof(kSnapshotMagic));
  Emit(header, sizeof(header));
}

void SnapshotEncoder::BeginSection(std::string_view name,
                                   uint64_t payload_size) {
  if (sections_left_ == 0 || payload_left_ != 0 || name.size() > UINT32_MAX) {
    ok_ = false;
  } else {
    --sections_left_;
  }
  unsigned char length[8];
  StoreLittleEndian(static_cast<uint32_t>(name.size()), length);
  Emit(length, 4);
  Emit(name.data(), name.size());
  StoreLittleEndian(payload_size, length);
  Emit(length, 8);
  payload_left_ = payload_size;
}

void SnapshotEncoder::Put(const void* data, size_t size) {
  if (size > payload_left_) ok_ = false;
  payload_left_ -= std::min<uint64_t>(size, payload_left_);
  Emit(data, size);
}

void SnapshotEncoder::PutU16(uint16_t v) {
  unsigned char bytes[2];
  StoreLittleEndian(v, bytes);
  Put(bytes, sizeof(bytes));
}

void SnapshotEncoder::PutU32(uint32_t v) {
  unsigned char bytes[4];
  StoreLittleEndian(v, bytes);
  Put(bytes, sizeof(bytes));
}

void SnapshotEncoder::PutU64(uint64_t v) {
  unsigned char bytes[8];
  StoreLittleEndian(v, bytes);
  Put(bytes, sizeof(bytes));
}

void SnapshotEncoder::PutString(std::string_view s) {
  PutU64(s.size());
  Put(s.data(), s.size());
}

bool SnapshotEncoder::Finish() {
  if (sections_left_ != 0 || payload_left_ != 0) ok_ = false;
  unsigned char trailer[4];
  StoreLittleEndian(crc_, trailer);
  Append(trailer, sizeof(trailer));  // Not part of its own CRC.
  Drain(buffer_, buffered_);
  buffered_ = 0;
  return ok_;
}

void SnapshotEncoder::Emit(const void* data, size_t size) {
  crc_ = Crc32(data, size, crc_);
  Append(data, size);
}

void SnapshotEncoder::Append(const void* data, size_t size) {
  if (!ok_) return;
  if (buffered_ + size > kBufferBytes) {
    Drain(buffer_, buffered_);
    buffered_ = 0;
    if (size >= kBufferBytes) {
      Drain(static_cast<const char*>(data), size);
      return;
    }
  }
  std::memcpy(buffer_ + buffered_, data, size);
  buffered_ += size;
}

void SnapshotEncoder::Drain(const char* data, size_t size) {
  while (ok_ && size > 0) {
    const ssize_t n = ::write(fd_, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      write_errno_ = n < 0 ? errno : EIO;
      ok_ = false;
      return;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// SnapshotStreamWriter.

SnapshotStreamWriter::~SnapshotStreamWriter() { Abandon(); }

void SnapshotStreamWriter::Abandon() {
  encoder_.reset();
  if (fd_ < 0) return;
  ::close(std::exchange(fd_, -1));
  std::error_code ec;
  fs::remove(tmp_path_, ec);  // Best-effort: never leave a stray tmp.
}

Status SnapshotStreamWriter::Open(const std::string& path,
                                  size_t section_count) {
  CROWDRL_CHECK(fd_ < 0) << "SnapshotStreamWriter already open";
  CROWDRL_CHECK(section_count <= UINT32_MAX);
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);  // Best-effort.
  }
  path_ = path;
  tmp_path_ = path + ".tmp";
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    return Status::Internal(
        StringPrintf("cannot open %s for writing", tmp_path_.c_str()));
  }
  declared_sections_ = section_count;
  section_names_.clear();
  encoder_.emplace(fd_, static_cast<uint32_t>(section_count));
  return Status::Ok();
}

Status SnapshotStreamWriter::AppendSection(const std::string& name,
                                           const Writer& payload) {
  CROWDRL_CHECK(encoder_.has_value())
      << "AppendSection on a closed SnapshotStreamWriter";
  CROWDRL_CHECK(section_names_.size() < declared_sections_)
      << "more sections appended than declared to Open()";
  for (const std::string& existing : section_names_) {
    CROWDRL_CHECK(existing != name)
        << "duplicate snapshot section " << name;
  }
  section_names_.push_back(name);
  encoder_->BeginSection(name, payload.size());
  encoder_->Put(payload.bytes().data(), payload.size());
  if (const int err = encoder_->write_errno(); err != 0) {
    Status status = Status::Internal(StringPrintf(
        "short write to %s: %s", tmp_path_.c_str(), std::strerror(err)));
    Abandon();
    return status;
  }
  return Status::Ok();
}

Status SnapshotStreamWriter::Close() {
  CROWDRL_CHECK(encoder_.has_value())
      << "Close on a closed SnapshotStreamWriter";
  CROWDRL_CHECK(section_names_.size() == declared_sections_)
      << "declared " << declared_sections_ << " sections but appended "
      << section_names_.size();
  const bool written = encoder_->Finish();
  encoder_.reset();
  const bool closed = ::close(std::exchange(fd_, -1)) == 0;
  std::error_code ec;
  if (written && closed) fs::rename(tmp_path_, path_, ec);
  if (!written || !closed || ec) {
    fs::remove(tmp_path_, ec);
    return Status::Internal(
        StringPrintf("cannot write snapshot %s", path_.c_str()));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// SnapshotStreamReader.

SnapshotStreamReader::~SnapshotStreamReader() { Close(); }

void SnapshotStreamReader::Close() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  path_.clear();
  sections_.clear();
}

Status SnapshotStreamReader::Open(const std::string& path) {
  Close();
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    return Status::NotFound(
        StringPrintf("cannot open snapshot %s", path.c_str()));
  }
  path_ = path;
  struct stat info{};
  Status status =
      ::fstat(fd_, &info) == 0
          ? Index(static_cast<size_t>(info.st_size))
          : Status::Internal(
                StringPrintf("cannot stat snapshot %s", path.c_str()));
  if (!status.ok()) Close();
  return status;
}

Status SnapshotStreamReader::ReadAt(size_t offset, void* data,
                                    size_t size) const {
  char* out = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n =
        ::pread(fd_, out, size, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::Internal(StringPrintf("read error on snapshot %s: %s",
                                           path_.c_str(),
                                           std::strerror(errno)));
    }
    if (n == 0) {
      return Status::DataLoss(
          StringPrintf("snapshot %s shrank while reading", path_.c_str()));
    }
    out += n;
    offset += static_cast<size_t>(n);
    size -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status SnapshotStreamReader::Index(size_t size) {
  // Identity before integrity: a foreign file or another format version
  // is reported as such, not as corruption (a newer version may not even
  // keep its CRC where this one does).
  constexpr size_t kHeaderSize = sizeof(kSnapshotMagic) + 4 + 4;
  unsigned char header[kHeaderSize];
  const size_t head = std::min(size, kHeaderSize);
  CROWDRL_RETURN_IF_ERROR(ReadAt(0, header, head));
  if (std::memcmp(header, kSnapshotMagic,
                  std::min(head, sizeof(kSnapshotMagic))) != 0) {
    return Status::InvalidArgument("not a CrowdRL snapshot (bad magic)");
  }
  if (head < sizeof(kSnapshotMagic) + 4) {
    return Status::DataLoss("truncated snapshot: header");
  }
  const auto version = static_cast<uint32_t>(LoadLittleEndian(header + 8, 4));
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(StringPrintf(
        "unsupported snapshot format version %u (expected %u)", version,
        kSnapshotFormatVersion));
  }
  if (size < kHeaderSize + 4) {
    return Status::DataLoss("snapshot too short to hold header + trailer");
  }

  // Integrity: the CRC over everything before the trailer, one chunk at
  // a time.
  const size_t end = size - 4;
  constexpr size_t kChunk = size_t{1} << 16;
  std::vector<char> chunk(std::min(kChunk, end));
  uint32_t crc = 0;
  for (size_t done = 0; done < end;) {
    const size_t take = std::min(kChunk, end - done);
    CROWDRL_RETURN_IF_ERROR(ReadAt(done, chunk.data(), take));
    crc = Crc32(chunk.data(), take, crc);
    done += take;
  }
  unsigned char trailer[4];
  CROWDRL_RETURN_IF_ERROR(ReadAt(end, trailer, sizeof(trailer)));
  const auto stored_crc = static_cast<uint32_t>(LoadLittleEndian(trailer, 4));
  if (stored_crc != crc) {
    return Status::DataLoss(StringPrintf(
        "snapshot CRC mismatch (stored %08x, computed %08x)", stored_crc,
        crc));
  }

  // Framing: hop the section frames, seeking over payloads.
  const uint64_t count = LoadLittleEndian(header + 12, 4);
  std::vector<SectionSpan> sections;
  std::unordered_set<std::string> names;
  size_t cursor = kHeaderSize;
  for (uint64_t s = 0; s < count; ++s) {
    unsigned char length[8];
    if (end - cursor < 4) {
      return Status::DataLoss("truncated snapshot: section frame");
    }
    CROWDRL_RETURN_IF_ERROR(ReadAt(cursor, length, 4));
    const uint64_t name_len = LoadLittleEndian(length, 4);
    cursor += 4;
    if (end - cursor < name_len + 8) {
      return Status::DataLoss("truncated snapshot: section frame");
    }
    std::string name(name_len, '\0');
    CROWDRL_RETURN_IF_ERROR(ReadAt(cursor, name.data(), name_len));
    CROWDRL_RETURN_IF_ERROR(ReadAt(cursor + name_len, length, 8));
    cursor += name_len + 8;
    const uint64_t payload_len = LoadLittleEndian(length, 8);
    if (payload_len > end - cursor) {
      return Status::DataLoss(StringPrintf(
          "truncated snapshot: section %s payload", name.c_str()));
    }
    if (!names.insert(name).second) {
      return Status::DataLoss(
          StringPrintf("duplicate snapshot section %s", name.c_str()));
    }
    sections.push_back({std::move(name), cursor, payload_len});
    cursor += payload_len;
  }
  if (cursor != end) {
    return Status::DataLoss("snapshot has trailing bytes after sections");
  }
  sections_ = std::move(sections);
  return Status::Ok();
}

bool SnapshotStreamReader::HasSection(const std::string& name) const {
  for (const SectionSpan& section : sections_) {
    if (section.name == name) return true;
  }
  return false;
}

std::vector<std::string> SnapshotStreamReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const SectionSpan& section : sections_) names.push_back(section.name);
  return names;
}

Status SnapshotStreamReader::ReadSection(const std::string& name,
                                         std::string* buffer,
                                         Reader* reader) const {
  CROWDRL_CHECK(buffer != nullptr && reader != nullptr);
  for (const SectionSpan& section : sections_) {
    if (section.name != name) continue;
    buffer->resize(section.length);
    CROWDRL_RETURN_IF_ERROR(
        ReadAt(section.offset, buffer->data(), section.length));
    *reader = Reader(*buffer);
    return Status::Ok();
  }
  return Status::NotFound(
      StringPrintf("snapshot has no section named %s", name.c_str()));
}

// ---------------------------------------------------------------------------
// Checkpoint directories.

std::string CheckpointFileName(size_t iteration) {
  return StringPrintf("ckpt-%012zu.ckpt", iteration);
}

namespace {

std::vector<fs::path> ListCheckpoints(const std::string& dir) {
  std::vector<fs::path> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 &&
        name.size() > 10 &&  // "ckpt-" + digits + ".ckpt"
        name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      found.push_back(entry.path());
    }
  }
  // Zero-padded iteration numbers: filename order == iteration order.
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

Status WriteCheckpointRotating(
    const std::string& dir, size_t iteration, size_t keep_last,
    const std::function<Status(const std::string& path)>& write) {
  if (dir.empty()) {
    return Status::InvalidArgument("empty checkpoint directory");
  }
  CROWDRL_RETURN_IF_ERROR(
      write((fs::path(dir) / CheckpointFileName(iteration)).string()));
  if (keep_last > 0) {
    std::vector<fs::path> existing = ListCheckpoints(dir);
    std::error_code ec;
    for (size_t i = 0; i + keep_last < existing.size(); ++i) {
      fs::remove(existing[i], ec);  // Best-effort cleanup.
    }
  }
  return Status::Ok();
}

Status FindLatestCheckpoint(const std::string& dir, std::string* path_out) {
  CROWDRL_CHECK(path_out != nullptr);
  if (dir.empty()) {
    return Status::InvalidArgument("empty checkpoint directory");
  }
  std::vector<fs::path> existing = ListCheckpoints(dir);
  if (existing.empty()) {
    return Status::NotFound(
        StringPrintf("no checkpoints under %s", dir.c_str()));
  }
  *path_out = existing.back().string();
  return Status::Ok();
}

}  // namespace crowdrl::io
