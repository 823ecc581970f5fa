// Flight-recorder contract tests: ring wraparound, scope registration,
// concurrent writers, the dump/decode round trip, CRC rejection of
// truncated dumps, and the fatal-signal hook (a death test whose dump
// tail must explain the crash).

#include "obs/flight_recorder.h"

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/flight_dump.h"
#include "io/snapshot.h"
#include "obs/metrics.h"

namespace crowdrl::obs {
namespace {

// Every test reconfigures the process-wide recorder from scratch and
// leaves the global switches off afterwards.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::Get().ResetForTesting();
    SetEnabled(true);
  }
  void TearDown() override {
    FlightRecorder::Get().ResetForTesting();
    SetEnabled(false);
  }
};

TEST_F(FlightRecorderTest, AppendIsNoOpUntilConfigured) {
  EXPECT_FALSE(FlightRecorder::Get().configured());
  EXPECT_FALSE(FlightEnabled());
  RecordFlightEvent(FlightEventType::kDrain);
  EXPECT_EQ(FlightRecorder::Get().total_appended(), 0u);
}

TEST_F(FlightRecorderTest, WraparoundKeepsNewestCapacityEvents) {
  FlightRecorder& rec = FlightRecorder::Get();
  rec.Configure(8);
  ASSERT_TRUE(FlightEnabled());
  for (uint64_t i = 0; i < 20; ++i) {
    rec.Append(FlightEventType::kCheckpoint, 0, /*a=*/i);
  }
  EXPECT_EQ(rec.total_appended(), 20u);
  std::vector<FlightEventRecord> events = rec.OrderedEvents();
  ASSERT_EQ(events.size(), 8u);  // Ring capacity, oldest 12 overwritten.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12 + i);  // Oldest surviving append is #12.
    EXPECT_EQ(events[i].type,
              static_cast<uint16_t>(FlightEventType::kCheckpoint));
  }
}

// A requested size that is not a power of two rounds up, so appends can
// mask the index: the ring, and the capacity the dump records, is the next
// power of two, and wraparound keeps exactly that many newest events.
TEST_F(FlightRecorderTest, CapacityRoundsUpToAPowerOfTwo) {
  FlightRecorder& rec = FlightRecorder::Get();
  rec.Configure(5);
  EXPECT_EQ(rec.capacity(), 8u);
  for (uint64_t i = 0; i < 21; ++i) {
    rec.Append(FlightEventType::kCheckpoint, 0, /*a=*/i);
  }
  std::vector<FlightEventRecord> events = rec.OrderedEvents();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].a, 13 + i);
}

TEST_F(FlightRecorderTest, ScopeRegistrationIsIdempotentAndBounded) {
  FlightRecorder& rec = FlightRecorder::Get();
  rec.Configure(8);
  const uint16_t a = rec.RegisterScope("campaign-a");
  const uint16_t b = rec.RegisterScope("campaign-b");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(rec.RegisterScope("campaign-a"), a);
  EXPECT_STREQ(rec.scope_name(a), "campaign-a");
  EXPECT_STREQ(rec.scope_name(0), "");  // Process scope.
}

TEST_F(FlightRecorderTest, ConfigureIsEnableOnlyFirstCapacityWins) {
  FlightRecorder& rec = FlightRecorder::Get();
  rec.Configure(8);
  rec.Configure(1024);  // Ignored: the first ring stays.
  EXPECT_EQ(rec.capacity(), 8u);
}

TEST_F(FlightRecorderTest, ConcurrentWritersLoseNoEvents) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  FlightRecorder& rec = FlightRecorder::Get();
  rec.Configure(kThreads * kPerThread);  // No wraparound: count everything.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        rec.Append(FlightEventType::kSessionConnect,
                   static_cast<uint16_t>(t), i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // All writers joined, so no slot is torn and every append survived.
  EXPECT_EQ(rec.total_appended(), kThreads * kPerThread);
  std::vector<FlightEventRecord> events = rec.OrderedEvents();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  std::vector<uint64_t> per_thread(kThreads, 0);
  for (const FlightEventRecord& ev : events) {
    ASSERT_LT(ev.scope, kThreads);
    ++per_thread[ev.scope];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread[t], kPerThread);
}

TEST_F(FlightRecorderTest, DumpDecodeRoundTrip) {
  FlightRecorder& rec = FlightRecorder::Get();
  rec.Configure(8);
  const uint16_t scope = rec.RegisterScope("roundtrip");
  for (uint64_t i = 0; i < 20; ++i) {
    rec.Append(FlightEventType::kTiSwap, scope, /*a=*/i, /*b=*/i * 2);
  }
  const std::string path =
      ::testing::TempDir() + "crowdrl_flight_roundtrip.dump";
  ASSERT_TRUE(io::DumpFlightRecorder(path.c_str()));

  io::FlightDump dump;
  ASSERT_TRUE(io::ReadFlightDump(path, &dump).ok());
  EXPECT_EQ(dump.payload_version, io::kFlightDumpPayloadVersion);
  EXPECT_EQ(dump.total_appended, 20u);
  EXPECT_EQ(dump.capacity, 8u);
  EXPECT_EQ(dump.event_size, sizeof(FlightEventRecord));
  EXPECT_EQ(dump.first_index, 12u);
  ASSERT_EQ(dump.events.size(), 8u);
  for (size_t i = 0; i < dump.events.size(); ++i) {
    const io::FlightDumpEvent& ev = dump.events[i];
    EXPECT_FALSE(ev.torn);
    EXPECT_EQ(ev.index, 12 + i);
    EXPECT_EQ(ev.a, 12 + i);
    EXPECT_EQ(ev.b, (12 + i) * 2);
    EXPECT_EQ(dump.TypeName(ev.type), "ti_swap");
    EXPECT_EQ(dump.ScopeName(ev.scope), "roundtrip");
  }
  // Ids beyond the recorded tables still print, numerically.
  EXPECT_EQ(dump.TypeName(9999), "type#9999");
  EXPECT_EQ(dump.ScopeName(0), "process");
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, TruncatedDumpFailsCrc) {
  FlightRecorder& rec = FlightRecorder::Get();
  rec.Configure(8);
  for (uint64_t i = 0; i < 6; ++i) {
    rec.Append(FlightEventType::kCheckpoint, 0, i);
  }
  const std::string path =
      ::testing::TempDir() + "crowdrl_flight_truncate.dump";
  ASSERT_TRUE(io::DumpFlightRecorder(path.c_str()));

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 16u);

  // Cut mid-events: the container CRC must reject the file outright
  // rather than decode a partial ring.
  const std::string truncated_path = path + ".truncated";
  std::ofstream out(truncated_path, std::ios::binary);
  out.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() - 16));
  out.close();
  io::FlightDump dump;
  EXPECT_FALSE(io::ReadFlightDump(truncated_path, &dump).ok());

  // A flipped bit anywhere fails the same way.
  const std::string corrupt_path = path + ".corrupt";
  bytes[bytes.size() / 2] ^= 0x20;
  std::ofstream out2(corrupt_path, std::ios::binary);
  out2.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out2.close();
  EXPECT_FALSE(io::ReadFlightDump(corrupt_path, &dump).ok());

  std::remove(path.c_str());
  std::remove(truncated_path.c_str());
  std::remove(corrupt_path.c_str());
}

TEST_F(FlightRecorderTest, ReadMissingFileIsAnError) {
  io::FlightDump dump;
  EXPECT_FALSE(
      io::ReadFlightDump("/nonexistent/flight.dump", &dump).ok());
}

// A CRC-valid dump whose payload declares the given counts over a body
// that holds none of what they promise: only the decoder's own count
// checks stand between the file and an allocation sized from them.
Status ReadCraftedDump(const std::string& name, uint32_t num_types,
                       uint64_t num_scopes, uint64_t event_count) {
  io::Writer payload;
  payload.WriteU32(io::kFlightDumpPayloadVersion);
  payload.WriteU64(/*total_appended=*/1);
  payload.WriteU64(/*capacity=*/8);
  payload.WriteU32(sizeof(FlightEventRecord));
  payload.WriteU32(num_types);
  if (num_types == 0) {
    payload.WriteU64(num_scopes);
    if (num_scopes == 0) {
      payload.WriteU64(/*first_index=*/0);
      payload.WriteU64(event_count);
    }
  }
  const std::string path = ::testing::TempDir() + "crowdrl_flight_" + name;
  io::SnapshotStreamWriter writer;
  CROWDRL_RETURN_IF_ERROR(writer.Open(path, 1));
  CROWDRL_RETURN_IF_ERROR(
      writer.AppendSection(io::kFlightDumpSection, payload));
  CROWDRL_RETURN_IF_ERROR(writer.Close());
  io::FlightDump dump;
  const Status status = io::ReadFlightDump(path, &dump);
  std::remove(path.c_str());
  return status;
}

TEST(FlightDumpCountTest, CraftedTypeNameCountIsDataLoss) {
  const Status status = ReadCraftedDump("types.dump", 0xFFFFFFFFu, 0, 0);
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
}

TEST(FlightDumpCountTest, CraftedScopeNameCountIsDataLoss) {
  const Status status = ReadCraftedDump("scopes.dump", 0, uint64_t{1} << 60, 0);
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
}

TEST(FlightDumpCountTest, CraftedEventCountIsDataLoss) {
  // 2^59 events of 32 bytes is 2^64 bytes, which wraps to the 0 bytes
  // that are left.
  const Status status = ReadCraftedDump("events.dump", 0, 0, uint64_t{1} << 59);
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
}

using FlightRecorderDeathTest = FlightRecorderTest;

TEST_F(FlightRecorderDeathTest, FatalSignalDumpTailExplainsTheCrash) {
  const std::string path = ::testing::TempDir() + "crowdrl_flight_fatal.dump";
  std::remove(path.c_str());
  // The child configures the ring, records a short campaign history,
  // installs the hook, and dies of SIGSEGV. The handler must persist the
  // ring and re-raise so the child still dies of SIGSEGV.
  EXPECT_EXIT(
      {
        SetEnabled(true);
        FlightRecorder& rec = FlightRecorder::Get();
        rec.Configure(64);
        const uint16_t scope = rec.RegisterScope("crashing-campaign");
        RecordFlightEvent(FlightEventType::kCampaignStart, scope);
        RecordFlightEvent(FlightEventType::kTiSnapshot, scope, /*a=*/3);
        io::InstallFatalSignalHook(path.c_str());
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");

  io::FlightDump dump;
  ASSERT_TRUE(io::ReadFlightDump(path, &dump).ok());
  ASSERT_GE(dump.events.size(), 3u);
  // The tail reads as a narrative: campaign started, snapshot taken,
  // then the fatal signal — with the signal number in the payload.
  const io::FlightDumpEvent& last = dump.events.back();
  EXPECT_FALSE(last.torn);
  EXPECT_EQ(dump.TypeName(last.type), "fatal_signal");
  EXPECT_EQ(last.a, static_cast<uint64_t>(SIGSEGV));
  EXPECT_EQ(dump.TypeName(dump.events[dump.events.size() - 2].type),
            "ti_snapshot");
  EXPECT_EQ(dump.ScopeName(dump.events[dump.events.size() - 2].scope),
            "crashing-campaign");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crowdrl::obs
