#include "io/serializer.h"

#include <bit>
#include <cstring>

#include "util/string_util.h"

namespace crowdrl::io {

namespace {

// Built at compile time, so Crc32 runs no initializer on first use and is
// safe to call from a signal handler.
struct Crc32Table {
  uint32_t entries[256];
  constexpr Crc32Table() : entries() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
};

constexpr Crc32Table kCrc32Table;

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = kCrc32Table.entries[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Writer::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Writer::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Writer::WriteDouble(double v) { WriteU64(std::bit_cast<uint64_t>(v)); }

void Writer::WriteString(std::string_view s) {
  WriteU64(s.size());
  buffer_.append(s.data(), s.size());
}

void Writer::WriteDoubleVector(const std::vector<double>& v) {
  WriteU64(v.size());
  for (double x : v) WriteDouble(x);
}

void Writer::WriteIntVector(const std::vector<int>& v) {
  WriteU64(v.size());
  for (int x : v) WriteI64(x);
}

void Writer::WriteBoolVector(const std::vector<bool>& v) {
  WriteU64(v.size());
  for (bool x : v) WriteBool(x);
}

Status Reader::Need(size_t bytes, const char* what) {
  if (remaining() < bytes) {
    return Status::DataLoss(StringPrintf(
        "truncated snapshot: need %zu bytes for %s, %zu left", bytes, what,
        remaining()));
  }
  return Status::Ok();
}

Status Reader::ReadU8(uint8_t* v) {
  CROWDRL_RETURN_IF_ERROR(Need(1, "u8"));
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::Ok();
}

Status Reader::ReadU32(uint32_t* v) {
  CROWDRL_RETURN_IF_ERROR(Need(4, "u32"));
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_++]))
           << (8 * i);
  }
  *v = out;
  return Status::Ok();
}

Status Reader::ReadU64(uint64_t* v) {
  CROWDRL_RETURN_IF_ERROR(Need(8, "u64"));
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++]))
           << (8 * i);
  }
  *v = out;
  return Status::Ok();
}

Status Reader::ReadI32(int32_t* v) {
  uint32_t raw;
  CROWDRL_RETURN_IF_ERROR(ReadU32(&raw));
  *v = static_cast<int32_t>(raw);
  return Status::Ok();
}

Status Reader::ReadI64(int64_t* v) {
  uint64_t raw;
  CROWDRL_RETURN_IF_ERROR(ReadU64(&raw));
  *v = static_cast<int64_t>(raw);
  return Status::Ok();
}

Status Reader::ReadSize(size_t* v) {
  uint64_t raw;
  CROWDRL_RETURN_IF_ERROR(ReadU64(&raw));
  *v = static_cast<size_t>(raw);
  return Status::Ok();
}

Status Reader::ReadBool(bool* v) {
  uint8_t raw;
  CROWDRL_RETURN_IF_ERROR(ReadU8(&raw));
  if (raw > 1) {
    return Status::DataLoss("corrupt snapshot: bool byte out of range");
  }
  *v = raw != 0;
  return Status::Ok();
}

Status Reader::ReadDouble(double* v) {
  uint64_t raw;
  CROWDRL_RETURN_IF_ERROR(ReadU64(&raw));
  *v = std::bit_cast<double>(raw);
  return Status::Ok();
}

Status Reader::ReadString(std::string* s) {
  uint64_t len;
  CROWDRL_RETURN_IF_ERROR(ReadU64(&len));
  CROWDRL_RETURN_IF_ERROR(Need(static_cast<size_t>(len), "string bytes"));
  s->assign(data_.data() + pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return Status::Ok();
}

Status Reader::ReadDoubleVector(std::vector<double>* v) {
  uint64_t count;
  CROWDRL_RETURN_IF_ERROR(ReadU64(&count));
  CROWDRL_RETURN_IF_ERROR(CheckCount(count, 8, "double vector"));
  v->resize(static_cast<size_t>(count));
  for (double& x : *v) CROWDRL_RETURN_IF_ERROR(ReadDouble(&x));
  return Status::Ok();
}

Status Reader::ReadIntVector(std::vector<int>* v) {
  uint64_t count;
  CROWDRL_RETURN_IF_ERROR(ReadU64(&count));
  CROWDRL_RETURN_IF_ERROR(CheckCount(count, 8, "int vector"));
  v->resize(static_cast<size_t>(count));
  for (int& x : *v) {
    int64_t wide;
    CROWDRL_RETURN_IF_ERROR(ReadI64(&wide));
    x = static_cast<int>(wide);
  }
  return Status::Ok();
}

Status Reader::ReadBoolVector(std::vector<bool>* v) {
  uint64_t count;
  CROWDRL_RETURN_IF_ERROR(ReadU64(&count));
  CROWDRL_RETURN_IF_ERROR(CheckCount(count, 1, "bool vector"));
  v->resize(static_cast<size_t>(count));
  for (size_t i = 0; i < v->size(); ++i) {
    bool x;
    CROWDRL_RETURN_IF_ERROR(ReadBool(&x));
    (*v)[i] = x;
  }
  return Status::Ok();
}

Status Reader::CheckCount(uint64_t count, size_t min_element_bytes,
                          const char* what) const {
  if (count > remaining() / min_element_bytes) {
    return Status::DataLoss(StringPrintf(
        "corrupt snapshot: %llu %s elements cannot fit in %zu bytes",
        static_cast<unsigned long long>(count), what, remaining()));
  }
  return Status::Ok();
}

Status Reader::Skip(size_t n, const char* what) {
  CROWDRL_RETURN_IF_ERROR(Need(n, what));
  pos_ += n;
  return Status::Ok();
}

Status Reader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::DataLoss(StringPrintf(
        "corrupt snapshot: %zu unread trailing bytes", remaining()));
  }
  return Status::Ok();
}

}  // namespace crowdrl::io
