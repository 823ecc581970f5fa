#include "obs/flight_recorder.h"

#include <cstring>
#include <mutex>

namespace crowdrl::obs {

namespace internal {
std::atomic<bool> g_flight{false};
}  // namespace internal

const char* FlightEventTypeName(uint16_t type) {
  switch (static_cast<FlightEventType>(type)) {
    case FlightEventType::kNone: return "none";
    case FlightEventType::kCampaignStart: return "campaign_start";
    case FlightEventType::kCampaignComplete: return "campaign_complete";
    case FlightEventType::kCampaignFailed: return "campaign_failed";
    case FlightEventType::kSessionConnect: return "session_connect";
    case FlightEventType::kSessionDisconnect: return "session_disconnect";
    case FlightEventType::kItemAbandoned: return "item_abandoned";
    case FlightEventType::kTiSnapshot: return "ti_snapshot";
    case FlightEventType::kTiSwap: return "ti_swap";
    case FlightEventType::kDrain: return "drain";
    case FlightEventType::kCheckpoint: return "checkpoint";
    case FlightEventType::kGateFallback: return "gate_fallback";
    case FlightEventType::kWatchdogFiring: return "watchdog_firing";
    case FlightEventType::kWatchdogCleared: return "watchdog_cleared";
    case FlightEventType::kServiceShutdown: return "service_shutdown";
    case FlightEventType::kFatalSignal: return "fatal_signal";
    case FlightEventType::kBudgetExhausted: return "budget_exhausted";
  }
  return "unknown";
}

namespace {
// Serializes Configure / RegisterScope / ResetForTesting; never taken on
// the append path.
std::mutex& ConfigMutex() {
  static std::mutex* const mutex = new std::mutex();
  return *mutex;
}
}  // namespace

FlightRecorder& FlightRecorder::Get() {
  // Leaked: the recorder must stay valid through static destruction and
  // inside fatal-signal handlers.
  static FlightRecorder* const recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Configure(size_t capacity) {
  std::lock_guard<std::mutex> lock(ConfigMutex());
  if (slots_.load(std::memory_order_acquire) == nullptr) {
    if (capacity < 2) capacity = 2;
    capacity_ = capacity;
    // Zero-initialized: seq_check 0 marks a never-written slot.
    slots_.store(new FlightEventRecord[capacity](),
                 std::memory_order_release);
  }
  internal::g_flight.store(true, std::memory_order_relaxed);
}

uint16_t FlightRecorder::RegisterScope(const std::string& name) {
  std::lock_guard<std::mutex> lock(ConfigMutex());
  const size_t scopes = num_scopes_.load(std::memory_order_acquire);
  for (size_t i = 1; i < scopes; ++i) {
    if (name == scope_names_[i]) return static_cast<uint16_t>(i);
  }
  if (scopes >= kMaxScopes) return 0;
  std::strncpy(scope_names_[scopes], name.c_str(), kScopeNameLen - 1);
  scope_names_[scopes][kScopeNameLen - 1] = '\0';
  num_scopes_.store(scopes + 1, std::memory_order_release);
  return static_cast<uint16_t>(scopes);
}

void FlightRecorder::Append(FlightEventType type, uint16_t scope, uint64_t a,
                            uint64_t b) {
  FlightEventRecord* slots = slots_.load(std::memory_order_acquire);
  if (slots == nullptr) return;
  const uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
  FlightEventRecord& slot = slots[index % capacity_];
  // Invalidate first so a dump racing this append sees a torn slot, not
  // a stale event wearing the old seq_check.
  reinterpret_cast<std::atomic<uint32_t>&>(slot.seq_check)
      .store(0, std::memory_order_relaxed);
  slot.time_ns = NowNs();
  slot.type = static_cast<uint16_t>(type);
  slot.scope = scope;
  slot.a = a;
  slot.b = b;
  reinterpret_cast<std::atomic<uint32_t>&>(slot.seq_check)
      .store(static_cast<uint32_t>(index + 1), std::memory_order_release);
}

const char* FlightRecorder::scope_name(size_t scope) const {
  if (scope >= num_scopes_.load(std::memory_order_acquire)) return "";
  return scope_names_[scope];
}

std::vector<FlightEventRecord> FlightRecorder::OrderedEvents() const {
  std::vector<FlightEventRecord> out;
  const FlightEventRecord* slots = slots_.load(std::memory_order_acquire);
  if (slots == nullptr) return out;
  const uint64_t total = next_.load(std::memory_order_acquire);
  const uint64_t first = total > capacity_ ? total - capacity_ : 0;
  out.reserve(static_cast<size_t>(total - first));
  for (uint64_t i = first; i < total; ++i) {
    FlightEventRecord slot = slots[i % capacity_];
    if (slot.seq_check != static_cast<uint32_t>(i + 1)) continue;  // Torn.
    out.push_back(slot);
  }
  return out;
}

void FlightRecorder::ResetForTesting(bool drop_ring) {
  std::lock_guard<std::mutex> lock(ConfigMutex());
  internal::g_flight.store(false, std::memory_order_relaxed);
  next_.store(0, std::memory_order_release);
  num_scopes_.store(1, std::memory_order_release);
  std::memset(scope_names_, 0, sizeof(scope_names_));
  FlightEventRecord* slots = slots_.load(std::memory_order_acquire);
  if (slots != nullptr) {
    if (drop_ring) {
      slots_.store(nullptr, std::memory_order_release);
      capacity_ = 0;
      delete[] slots;
    } else {
      for (size_t i = 0; i < capacity_; ++i) slots[i] = FlightEventRecord{};
    }
  }
}

}  // namespace crowdrl::obs
