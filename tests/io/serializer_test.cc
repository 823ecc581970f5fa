#include "io/serializer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace crowdrl::io {
namespace {

TEST(Crc32Test, MatchesKnownVector) {
  // The classic IEEE 802.3 check value for "123456789".
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t one_shot = Crc32(data.data(), data.size());
  uint32_t running = Crc32(data.data(), 10);
  running = Crc32(data.data() + 10, data.size() - 10, running);
  EXPECT_EQ(running, one_shot);
}

TEST(SerializerTest, ScalarRoundTrip) {
  Writer writer;
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteI32(-42);
  writer.WriteI64(-1234567890123ll);
  writer.WriteSize(77);
  writer.WriteBool(true);
  writer.WriteBool(false);
  writer.WriteDouble(-0.1);

  Reader reader(writer.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  size_t size = 0;
  bool yes = false, no = true;
  double d = 0.0;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadI32(&i32).ok());
  ASSERT_TRUE(reader.ReadI64(&i64).ok());
  ASSERT_TRUE(reader.ReadSize(&size).ok());
  ASSERT_TRUE(reader.ReadBool(&yes).ok());
  ASSERT_TRUE(reader.ReadBool(&no).ok());
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());

  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123ll);
  EXPECT_EQ(size, 77u);
  EXPECT_TRUE(yes);
  EXPECT_FALSE(no);
  EXPECT_EQ(d, -0.1);
}

TEST(SerializerTest, DoubleRoundTripIsBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  Writer writer;
  for (double v : values) writer.WriteDouble(v);
  Reader reader(writer.bytes());
  for (double expected : values) {
    double got = 0.0;
    ASSERT_TRUE(reader.ReadDouble(&got).ok());
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(got));
    } else {
      EXPECT_EQ(got, expected);
      // Distinguishes -0.0 from 0.0.
      EXPECT_EQ(std::signbit(got), std::signbit(expected));
    }
  }
}

TEST(SerializerTest, StringAndVectorRoundTrip) {
  Writer writer;
  writer.WriteString("hello \0 world");  // Truncates at NUL (string_view).
  writer.WriteString(std::string("binary\0ok", 9));
  writer.WriteDoubleVector({1.5, -2.5, 0.0});
  writer.WriteIntVector({-1, 0, 7});
  writer.WriteBoolVector({true, false, true, true});
  writer.WriteDoubleVector({});

  Reader reader(writer.bytes());
  std::string a, b;
  std::vector<double> dv, empty;
  std::vector<int> iv;
  std::vector<bool> bv;
  ASSERT_TRUE(reader.ReadString(&a).ok());
  ASSERT_TRUE(reader.ReadString(&b).ok());
  ASSERT_TRUE(reader.ReadDoubleVector(&dv).ok());
  ASSERT_TRUE(reader.ReadIntVector(&iv).ok());
  ASSERT_TRUE(reader.ReadBoolVector(&bv).ok());
  ASSERT_TRUE(reader.ReadDoubleVector(&empty).ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());

  EXPECT_EQ(a, "hello ");
  EXPECT_EQ(b, std::string("binary\0ok", 9));
  EXPECT_EQ(dv, (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(iv, (std::vector<int>{-1, 0, 7}));
  EXPECT_EQ(bv, (std::vector<bool>{true, false, true, true}));
  EXPECT_TRUE(empty.empty());
}

TEST(SerializerTest, TruncatedReadsReturnDataLoss) {
  Writer writer;
  writer.WriteU64(123);
  // Drop the last byte of the encoding.
  Reader reader(std::string_view(writer.bytes()).substr(0, 7));
  uint64_t v = 0;
  EXPECT_TRUE(reader.ReadU64(&v).IsDataLoss());

  Reader empty(std::string_view{});
  uint8_t byte = 0;
  double d = 0.0;
  std::string s;
  EXPECT_TRUE(empty.ReadU8(&byte).IsDataLoss());
  EXPECT_TRUE(empty.ReadDouble(&d).IsDataLoss());
  EXPECT_TRUE(empty.ReadString(&s).IsDataLoss());
}

TEST(SerializerTest, CorruptLengthPrefixRejectedBeforeAllocation) {
  // A length prefix claiming far more bytes than remain must fail with
  // DataLoss instead of attempting a multi-exabyte allocation.
  Writer writer;
  writer.WriteU64(std::numeric_limits<uint64_t>::max());
  writer.WriteU8(1);  // One actual payload byte.
  {
    Reader reader(writer.bytes());
    std::string s;
    EXPECT_TRUE(reader.ReadString(&s).IsDataLoss());
  }
  {
    Reader reader(writer.bytes());
    std::vector<double> v;
    EXPECT_TRUE(reader.ReadDoubleVector(&v).IsDataLoss());
  }
  {
    Reader reader(writer.bytes());
    std::vector<int> v;
    EXPECT_TRUE(reader.ReadIntVector(&v).IsDataLoss());
  }
}

TEST(SerializerTest, CountsThatWrapTheByteSizeAreRejected) {
  // 2^61 eight-byte elements is 2^64 bytes, which wraps to 0: the count
  // is checked against the remaining bytes by division, so it cannot
  // slip past and size a vector.
  for (uint64_t count : {uint64_t{1} << 61, (uint64_t{1} << 61) + 1}) {
    Writer writer;
    writer.WriteU64(count);
    writer.WriteU64(0);  // One real element.
    {
      Reader reader(writer.bytes());
      std::vector<double> v;
      EXPECT_TRUE(reader.ReadDoubleVector(&v).IsDataLoss()) << count;
    }
    {
      Reader reader(writer.bytes());
      std::vector<int> v;
      EXPECT_TRUE(reader.ReadIntVector(&v).IsDataLoss()) << count;
    }
    Reader reader(writer.bytes());
    EXPECT_TRUE(reader.CheckCount(count, 8, "element").IsDataLoss());
    EXPECT_TRUE(reader.CheckCount(2, 8, "element").ok());
    EXPECT_TRUE(reader.CheckCount(3, 8, "element").IsDataLoss());
  }
}

TEST(SerializerTest, SkipAndRemaining) {
  Writer writer;
  writer.WriteU32(1);
  writer.WriteU32(2);
  Reader reader(writer.bytes());
  EXPECT_EQ(reader.remaining(), 8u);
  ASSERT_TRUE(reader.Skip(4, "first word").ok());
  EXPECT_EQ(reader.remaining(), 4u);
  uint32_t v = 0;
  ASSERT_TRUE(reader.ReadU32(&v).ok());
  EXPECT_EQ(v, 2u);
  EXPECT_TRUE(reader.Skip(1, "past the end").IsDataLoss());
}

TEST(SerializerTest, ExpectEndCatchesTrailingGarbage) {
  Writer writer;
  writer.WriteU32(5);
  writer.WriteU8(99);  // Garbage a reader of one u32 never consumes.
  Reader reader(writer.bytes());
  uint32_t v = 0;
  ASSERT_TRUE(reader.ReadU32(&v).ok());
  EXPECT_TRUE(reader.ExpectEnd().IsDataLoss());
}

TEST(SerializerTest, LittleEndianWireFormat) {
  Writer writer;
  writer.WriteU32(0x01020304);
  const std::string& bytes = writer.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(bytes[1]), 0x03);
  EXPECT_EQ(static_cast<uint8_t>(bytes[2]), 0x02);
  EXPECT_EQ(static_cast<uint8_t>(bytes[3]), 0x01);
}

}  // namespace
}  // namespace crowdrl::io
