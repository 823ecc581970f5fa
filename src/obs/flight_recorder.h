#ifndef CROWDRL_OBS_FLIGHT_RECORDER_H_
#define CROWDRL_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

/// \file
/// \brief Crash-safe flight recorder: a fixed-size, preallocated ring
/// journal of structured binary events — the labelling service's black
/// box (DESIGN.md §15).
///
/// The recorder answers "what was the service doing just before it
/// died?". Every structurally interesting transition (session connect /
/// disconnect, abandoned work, TI snapshot / swap, drain, checkpoint,
/// exactness-gate fallback, watchdog verdicts, campaign lifecycle, fatal
/// signals) appends one 32-byte event. The ring is preallocated at
/// Configure() time and never grows, so appending is wait-free (one
/// fetch_add + five plain stores + one release store) and safe from any
/// thread, including a fatal-signal handler.
///
/// Crash safety: events are self-validating. A writer claims a slot with
/// a fetch_add on the global index and publishes it by storing the
/// index+1 (truncated to 32 bits) into the slot's `seq_check` field
/// *last*, with release order. A dump taken at any instant — including
/// mid-append from a signal handler on another thread — contains at most
/// a few torn slots, and the decoder identifies them exactly: a slot
/// holding event i must have seq_check == (i+1) mod 2^32.
///
/// The dump itself (io/flight_dump.h) reuses the snapshot container's
/// CRC framing and is written with async-signal-safe calls only; the
/// human-readable decoder lives in bench/flight_decode.cc.
///
/// Contract: appends are gated on FlightEnabled() (one relaxed load when
/// disabled), ObsOptions::flight_recorder is enable-only, events carry
/// only clocks and ids (never RNG or numeric state, so instrumented runs
/// stay byte-identical), and CROWDRL_OBS_BUILD=0 compiles the hooks out.

namespace crowdrl::obs {

namespace internal {
extern std::atomic<bool> g_flight;
}  // namespace internal

/// True when flight-recorder appends are live (requires Enabled() and a
/// configured ring).
inline bool FlightEnabled() {
#if CROWDRL_OBS_BUILD
  return internal::g_flight.load(std::memory_order_relaxed) &&
         internal::g_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Event vocabulary. Append-only: dump payloads carry the names, so a
/// decoder never misreads an id it predates, but renumbering breaks old
/// dumps.
enum class FlightEventType : uint16_t {
  kNone = 0,
  kCampaignStart = 1,
  kCampaignComplete = 2,
  kCampaignFailed = 3,
  kSessionConnect = 4,     ///< a = annotator id.
  kSessionDisconnect = 5,  ///< a = annotator id.
  kItemAbandoned = 6,      ///< a = dispatch seq.
  kTiSnapshot = 7,         ///< a = snapshot base revision.
  kTiSwap = 8,             ///< a = applied revision, b = swap ordinal.
  kDrain = 9,
  kCheckpoint = 10,        ///< a = iteration.
  kGateFallback = 11,      ///< a = cumulative gate fallbacks.
  // 12 is retired (it named a compute-backend fallback); never reuse it.
  kWatchdogFiring = 13,    ///< a = rule ordinal, b = value bits (double).
  kWatchdogCleared = 14,   ///< a = rule ordinal, b = value bits (double).
  kServiceShutdown = 15,
  kFatalSignal = 16,       ///< a = signal number.
  kBudgetExhausted = 17,   ///< a = dispatch seq that the budget refused.
};
const char* FlightEventTypeName(uint16_t type);
inline constexpr uint16_t kNumFlightEventTypes = 18;

/// One ring slot. Fixed 32-byte POD layout — the dump writes these raw
/// and the payload header records sizeof so decoders can sanity-check.
struct FlightEventRecord {
  uint64_t time_ns = 0;   ///< obs::NowNs() at append.
  uint32_t seq_check = 0; ///< (global index + 1) mod 2^32; written last.
  uint16_t type = 0;      ///< FlightEventType.
  uint16_t scope = 0;     ///< Campaign ordinal (0 = process scope).
  uint64_t a = 0;         ///< Event-specific payload.
  uint64_t b = 0;         ///< Event-specific payload.
};
static_assert(sizeof(FlightEventRecord) == 32, "dump format is fixed");

/// \brief The process-wide ring journal.
class FlightRecorder {
 public:
  /// Scope-name storage: fixed-width so a crash dump never reads a torn
  /// std::string. Longer names are truncated.
  static constexpr size_t kMaxScopes = 256;
  static constexpr size_t kScopeNameLen = 48;

  static FlightRecorder& Get();

  /// Preallocates `capacity` slots (rounded up to 2) and turns appends
  /// on. First configuration wins: a later call with a different
  /// capacity keeps the existing ring (enable-only, like every obs
  /// option). Not signal-safe (allocates); call at startup.
  void Configure(size_t capacity);
  bool configured() const {
    return slots_.load(std::memory_order_acquire) != nullptr;
  }

  /// Registers a campaign/service name and returns its scope ordinal for
  /// Append (>= 1; 0 stays the process scope). Idempotent per name.
  /// Beyond kMaxScopes, returns 0 (events still record, unattributed).
  uint16_t RegisterScope(const std::string& name);

  /// Wait-free append. No-op until Configure(). Safe from signal
  /// handlers once configured.
  void Append(FlightEventType type, uint16_t scope = 0, uint64_t a = 0,
              uint64_t b = 0);

  // --- Raw surface for the dump writer (io/flight_dump.cc). Everything
  // here is safe to call from a signal handler after Configure().
  size_t capacity() const { return capacity_; }
  uint64_t total_appended() const {
    return next_.load(std::memory_order_acquire);
  }
  const FlightEventRecord* slots() const {
    return slots_.load(std::memory_order_acquire);
  }
  size_t num_scopes() const {
    return num_scopes_.load(std::memory_order_acquire);
  }
  /// NUL-terminated fixed buffer; index 0 is the process scope "".
  const char* scope_name(size_t scope) const;

  /// In-process decode: the ring's events oldest → newest, torn slots
  /// skipped. Not signal-safe (allocates); for tests and HealthSnapshot.
  std::vector<FlightEventRecord> OrderedEvents() const;

  /// Drops all events and scope registrations and (optionally) the ring
  /// itself so a test can reconfigure with a different capacity.
  void ResetForTesting(bool drop_ring = true);

 private:
  FlightRecorder() = default;

  std::atomic<FlightEventRecord*> slots_{nullptr};
  size_t capacity_ = 0;
  std::atomic<uint64_t> next_{0};
  std::atomic<size_t> num_scopes_{1};  // Slot 0 = process scope.
  char scope_names_[kMaxScopes][kScopeNameLen] = {};
};

/// Hot-path hook: one relaxed load when disabled; compiled out entirely
/// with CROWDRL_OBS_BUILD=0.
inline void RecordFlightEvent(FlightEventType type, uint16_t scope = 0,
                              uint64_t a = 0, uint64_t b = 0) {
#if CROWDRL_OBS_BUILD
  if (!FlightEnabled()) return;
  FlightRecorder::Get().Append(type, scope, a, b);
#else
  (void)type;
  (void)scope;
  (void)a;
  (void)b;
#endif
}

}  // namespace crowdrl::obs

#endif  // CROWDRL_OBS_FLIGHT_RECORDER_H_
