#ifndef CROWDRL_IO_FLIGHT_DUMP_H_
#define CROWDRL_IO_FLIGHT_DUMP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

/// \file
/// \brief Crash-safe dump of the obs::FlightRecorder ring journal
/// (DESIGN.md §15).
///
/// The dump is a regular snapshot container (io/snapshot.h — magic,
/// version, sections, CRC32 trailer) holding one "flight_recorder"
/// section, written by the same SnapshotEncoder and read by the same
/// SnapshotStreamReader as checkpoints, so the integrity guarantees that
/// protect checkpoints protect the black box: a truncated or bit-flipped
/// dump fails the CRC instead of decoding to lies. The payload is
/// self-describing — it carries the event-type and scope name tables, so
/// a decoder built before (or after) this binary's event vocabulary still
/// prints every event it knows and a numeric id for the rest.
///
/// DumpFlightRecorder is written for the worst moment of the process's
/// life: it is async-signal-safe (open/write/close, stack buffers, no
/// allocation, no locks, no stdio) so the fatal-signal hook can persist
/// the ring from inside SIGSEGV.

namespace crowdrl::io {

/// Payload section name and version inside the snapshot container.
inline constexpr char kFlightDumpSection[] = "flight_recorder";
inline constexpr uint32_t kFlightDumpPayloadVersion = 1;

/// One decoded ring event. `torn` marks a slot whose seq_check did not
/// match its position — a write was in flight when the dump was taken
/// (expected at the ring head after a crash; its fields are untrusted).
struct FlightDumpEvent {
  uint64_t index = 0;  ///< Global append index (monotonic since start).
  bool torn = false;
  uint64_t time_ns = 0;
  uint16_t type = 0;
  uint16_t scope = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

/// A decoded dump: header + name tables + events oldest → newest.
struct FlightDump {
  uint32_t payload_version = 0;
  uint64_t total_appended = 0;  ///< Lifetime appends (>= events.size()).
  uint64_t capacity = 0;        ///< Ring slots at dump time.
  uint32_t event_size = 0;      ///< Bytes per on-disk event record (32).
  std::vector<std::string> type_names;   ///< Indexed by event type id.
  std::vector<std::string> scope_names;  ///< Indexed by scope ordinal.
  uint64_t first_index = 0;     ///< Global index of events.front().
  std::vector<FlightDumpEvent> events;

  /// Name lookups that survive ids beyond the recorded tables.
  std::string TypeName(uint16_t type) const;
  std::string ScopeName(uint16_t scope) const;
};

/// Writes the current ring to `path` as a CRC-framed snapshot container.
/// Async-signal-safe once the recorder is configured. Returns false when
/// the recorder is unconfigured or any write fails; never allocates,
/// locks, or throws. Unlike checkpoint writes
/// this is NOT atomic-rename (rename of a tmp would double the failure
/// surface inside a signal handler); a dump is written once, at failure
/// time, and its CRC already rejects partial files.
bool DumpFlightRecorder(const char* path);

/// Reads and decodes a dump; validates the container CRC and the payload
/// framing, checks every count against the bytes left before sizing
/// anything from it, and marks torn slots. DataLoss on truncation or
/// corruption.
Status ReadFlightDump(const std::string& path, FlightDump* out);

/// Installs a fatal-signal handler (SIGSEGV, SIGBUS, SIGFPE, SIGILL,
/// SIGABRT) that appends a kFatalSignal event, dumps the ring to `path`,
/// then re-raises the signal with default disposition (so the exit code
/// / core dump is unchanged). `path` is copied into static storage.
/// Idempotent; a second call just updates the path.
void InstallFatalSignalHook(const char* path);

}  // namespace crowdrl::io

#endif  // CROWDRL_IO_FLIGHT_DUMP_H_
