#include "io/flight_dump.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <utility>

#include "io/snapshot.h"
#include "obs/flight_recorder.h"

namespace crowdrl::io {

namespace {

constexpr uint32_t kEventSize = 32;

/// Payload byte count, computed up front: the section frame carries the
/// payload length *before* the payload, so the dump writer must know it
/// without buffering the whole thing.
size_t PayloadSize(const obs::FlightRecorder& rec, size_t scopes,
                   uint64_t event_count) {
  size_t size = 4 + 8 + 8 + 4;  // version + total + capacity + event_size.
  size += 4;                     // Type-name count.
  for (uint16_t t = 0; t < obs::kNumFlightEventTypes; ++t) {
    size += 8 + std::strlen(obs::FlightEventTypeName(t));
  }
  size += 8;  // Scope count.
  for (size_t s = 0; s < scopes; ++s) {
    size += 8 + std::strlen(rec.scope_name(s));
  }
  size += 8 + 8;  // first_index + event count.
  size += static_cast<size_t>(event_count) * kEventSize;
  return size;
}

}  // namespace

bool DumpFlightRecorder(const char* path) {
  const obs::FlightRecorder& rec = obs::FlightRecorder::Get();
  const obs::FlightEventRecord* slots = rec.slots();
  if (slots == nullptr || path == nullptr) return false;

  // Freeze the append index once; concurrent appends past it simply miss
  // this dump (their slots decode as torn if they landed in the window).
  const uint64_t total = rec.total_appended();
  const uint64_t capacity = rec.capacity();
  const uint64_t event_count = total < capacity ? total : capacity;
  const uint64_t first_index = total - event_count;
  const size_t num_scopes = rec.num_scopes();

  const int fd =
      ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  SnapshotEncoder out(fd, /*section_count=*/1);
  out.BeginSection(kFlightDumpSection, PayloadSize(rec, num_scopes, event_count));

  // Payload header + self-describing name tables.
  out.PutU32(kFlightDumpPayloadVersion);
  out.PutU64(total);
  out.PutU64(capacity);
  out.PutU32(kEventSize);
  out.PutU32(obs::kNumFlightEventTypes);
  for (uint16_t t = 0; t < obs::kNumFlightEventTypes; ++t) {
    out.PutString(obs::FlightEventTypeName(t));
  }
  out.PutU64(num_scopes);
  for (size_t s = 0; s < num_scopes; ++s) out.PutString(rec.scope_name(s));

  // Events oldest → newest, fields re-encoded little-endian (never raw
  // struct memory, so the format is host-order independent).
  out.PutU64(first_index);
  out.PutU64(event_count);
  for (uint64_t i = first_index; i < total; ++i) {
    const obs::FlightEventRecord& slot = slots[i % capacity];
    out.PutU64(slot.time_ns);
    out.PutU32(slot.seq_check);
    out.PutU16(slot.type);
    out.PutU16(slot.scope);
    out.PutU64(slot.a);
    out.PutU64(slot.b);
  }
  const bool written = out.Finish();
  const bool closed = ::close(fd) == 0;
  return written && closed;
}

std::string FlightDump::TypeName(uint16_t type) const {
  if (type < type_names.size()) return type_names[type];
  return "type#" + std::to_string(type);
}

std::string FlightDump::ScopeName(uint16_t scope) const {
  if (scope < scope_names.size() && !scope_names[scope].empty()) {
    return scope_names[scope];
  }
  return scope == 0 ? "process" : "scope#" + std::to_string(scope);
}

Status ReadFlightDump(const std::string& path, FlightDump* out) {
  SnapshotStreamReader snapshot;
  CROWDRL_RETURN_IF_ERROR(snapshot.Open(path));
  std::string bytes;
  Reader reader;
  CROWDRL_RETURN_IF_ERROR(
      snapshot.ReadSection(kFlightDumpSection, &bytes, &reader));

  FlightDump dump;
  CROWDRL_RETURN_IF_ERROR(reader.ReadU32(&dump.payload_version));
  if (dump.payload_version != kFlightDumpPayloadVersion) {
    return Status::InvalidArgument("unsupported flight dump version " +
                                   std::to_string(dump.payload_version));
  }
  CROWDRL_RETURN_IF_ERROR(reader.ReadU64(&dump.total_appended));
  CROWDRL_RETURN_IF_ERROR(reader.ReadU64(&dump.capacity));
  CROWDRL_RETURN_IF_ERROR(reader.ReadU32(&dump.event_size));
  if (dump.event_size != kEventSize) {
    return Status::DataLoss("flight dump event size mismatch");
  }

  // Every count is checked against the bytes left before it sizes
  // anything: a name costs at least its u64 length prefix.
  uint32_t num_types = 0;
  CROWDRL_RETURN_IF_ERROR(reader.ReadU32(&num_types));
  CROWDRL_RETURN_IF_ERROR(reader.CheckCount(num_types, 8, "type name"));
  dump.type_names.resize(num_types);
  for (std::string& name : dump.type_names) {
    CROWDRL_RETURN_IF_ERROR(reader.ReadString(&name));
  }
  uint64_t num_scopes = 0;
  CROWDRL_RETURN_IF_ERROR(reader.ReadU64(&num_scopes));
  CROWDRL_RETURN_IF_ERROR(reader.CheckCount(num_scopes, 8, "scope name"));
  dump.scope_names.resize(num_scopes);
  for (std::string& name : dump.scope_names) {
    CROWDRL_RETURN_IF_ERROR(reader.ReadString(&name));
  }

  uint64_t event_count = 0;
  CROWDRL_RETURN_IF_ERROR(reader.ReadU64(&dump.first_index));
  CROWDRL_RETURN_IF_ERROR(reader.ReadU64(&event_count));
  if (reader.remaining() % kEventSize != 0 ||
      event_count != reader.remaining() / kEventSize) {
    return Status::DataLoss("flight dump event block truncated");
  }
  dump.events.resize(event_count);
  for (uint64_t i = 0; i < event_count; ++i) {
    FlightDumpEvent& event = dump.events[i];
    event.index = dump.first_index + i;
    uint32_t seq_check = 0;
    uint32_t type_scope = 0;
    CROWDRL_RETURN_IF_ERROR(reader.ReadU64(&event.time_ns));
    CROWDRL_RETURN_IF_ERROR(reader.ReadU32(&seq_check));
    CROWDRL_RETURN_IF_ERROR(reader.ReadU32(&type_scope));
    event.type = static_cast<uint16_t>(type_scope & 0xFFFFu);
    event.scope = static_cast<uint16_t>(type_scope >> 16);
    CROWDRL_RETURN_IF_ERROR(reader.ReadU64(&event.a));
    CROWDRL_RETURN_IF_ERROR(reader.ReadU64(&event.b));
    // A published slot carries (index + 1) mod 2^32; anything else was
    // mid-write (or never written) when the dump froze the ring.
    event.torn =
        seq_check != static_cast<uint32_t>((event.index + 1) & 0xFFFFFFFFu);
  }
  CROWDRL_RETURN_IF_ERROR(reader.ExpectEnd());
  *out = std::move(dump);
  return Status::Ok();
}

namespace {

char g_fatal_dump_path[512] = {};

void FatalSignalHandler(int signo) {
  // Best effort from a dying process: journal the signal, persist the
  // ring, then die the way the default disposition would have.
  obs::FlightRecorder::Get().Append(obs::FlightEventType::kFatalSignal, 0,
                                    static_cast<uint64_t>(signo), 0);
  DumpFlightRecorder(g_fatal_dump_path);
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void InstallFatalSignalHook(const char* path) {
  if (path == nullptr || path[0] == '\0') return;
  std::strncpy(g_fatal_dump_path, path, sizeof(g_fatal_dump_path) - 1);
  g_fatal_dump_path[sizeof(g_fatal_dump_path) - 1] = '\0';
  // Warm the recorder singleton now, outside signal context (the CRC
  // table is built at compile time).
  (void)obs::FlightRecorder::Get();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &FatalSignalHandler;
  sigemptyset(&action.sa_mask);
  for (int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    ::sigaction(signo, &action, nullptr);
  }
}

}  // namespace crowdrl::io
