#ifndef CROWDRL_IO_SERIALIZER_H_
#define CROWDRL_IO_SERIALIZER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace crowdrl::io {

/// Running CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size`
/// bytes. Pass the previous return value as `crc` to continue a running
/// checksum; start with 0.
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

/// \brief Append-only binary encoder for snapshot payloads.
///
/// All integers are written little-endian regardless of host order;
/// doubles are written as their IEEE-754 bit pattern, so round-trips are
/// bit-exact. Vectors are length-prefixed (u64 count). Writing cannot
/// fail — the buffer grows as needed.
class Writer {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteSize(size_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteDouble(double v);

  /// u64 length prefix + raw bytes.
  void WriteString(std::string_view s);

  void WriteDoubleVector(const std::vector<double>& v);
  void WriteIntVector(const std::vector<int>& v);
  void WriteBoolVector(const std::vector<bool>& v);

  const std::string& bytes() const { return buffer_; }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// \brief Bounds-checked decoder over a byte range (not owned).
///
/// Every read returns a `Status`; running past the end yields DataLoss
/// ("truncated ...") instead of undefined behaviour, and length prefixes
/// are validated against the remaining byte count before any allocation,
/// so a corrupt length cannot trigger an out-of-memory crash.
class Reader {
 public:
  Reader() : data_() {}
  explicit Reader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadI32(int32_t* v);
  Status ReadI64(int64_t* v);
  Status ReadSize(size_t* v);
  Status ReadBool(bool* v);
  Status ReadDouble(double* v);
  Status ReadString(std::string* s);
  Status ReadDoubleVector(std::vector<double>* v);
  Status ReadIntVector(std::vector<int>* v);
  Status ReadBoolVector(std::vector<bool>* v);

  /// Advances the cursor over `n` bytes without decoding them.
  Status Skip(size_t n, const char* what);

  size_t remaining() const { return data_.size() - pos_; }

  /// DataLoss unless `count` elements of at least `min_element_bytes`
  /// each fit in the remaining bytes. Call it before sizing anything from
  /// a count read off the wire.
  Status CheckCount(uint64_t count, size_t min_element_bytes,
                    const char* what) const;

  /// DataLoss unless the cursor consumed the range exactly — catches
  /// trailing garbage and format drift between writer and reader.
  Status ExpectEnd() const;

 private:
  Status Need(size_t bytes, const char* what);

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace crowdrl::io

#endif  // CROWDRL_IO_SERIALIZER_H_
