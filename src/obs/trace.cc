#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace crowdrl::obs {

namespace {

// Per-thread cap: 1M events ≈ 24 MB/thread worst case. Beyond it we count
// drops instead of growing — a tracing run must not OOM the process.
// Runtime-settable (tests only) so the overflow path is testable without
// recording a million spans first.
constexpr size_t kDefaultMaxEventsPerThread = 1 << 20;
std::atomic<size_t> g_max_events_per_thread{kDefaultMaxEventsPerThread};

struct TraceEvent {
  const char* name;
  uint64_t start_ns;
  uint64_t dur_ns;
};

struct ThreadBuffer {
  explicit ThreadBuffer(uint32_t tid_in) : tid(tid_in) {}

  const uint32_t tid;
  mutable std::mutex mutex;
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
};

}  // namespace

struct TraceRecorder::Impl {
  std::mutex registry_mutex;
  // Buffers are owned here and never destroyed: a detached thread may
  // still hold its thread_local pointer at process exit.
  std::vector<ThreadBuffer*> buffers;

  ThreadBuffer* BufferForThisThread() {
    thread_local ThreadBuffer* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(registry_mutex);
      buffer = new ThreadBuffer(static_cast<uint32_t>(buffers.size()));
      buffers.push_back(buffer);
    }
    return buffer;
  }

  std::vector<ThreadBuffer*> AllBuffers() {
    std::lock_guard<std::mutex> lock(registry_mutex);
    return buffers;
  }
};

TraceRecorder::Impl& TraceRecorder::impl() const {
  static Impl* const impl = new Impl();
  return *impl;
}

TraceRecorder& TraceRecorder::Get() {
  static TraceRecorder* const recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::RecordComplete(const char* name, uint64_t start_ns,
                                   uint64_t dur_ns) {
  ThreadBuffer* buffer = impl().BufferForThisThread();
  {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    if (buffer->events.size() <
        g_max_events_per_thread.load(std::memory_order_relaxed)) {
      buffer->events.push_back({name, start_ns, dur_ns});
      return;
    }
    ++buffer->dropped;
  }
  // The drop is also a metric, so span loss is visible to consumers that
  // only look at snapshots / run_metrics.jsonl, not the trace file.
  static Counter* const dropped =
      MetricsRegistry::Get().GetCounter("crowdrl.obs.trace_dropped");
  dropped->Inc();
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[", file);
  bool first = true;
  uint64_t dropped = 0;
  std::string name;
  for (ThreadBuffer* buffer : impl().AllBuffers()) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    dropped += buffer->dropped;
    for (const TraceEvent& event : buffer->events) {
      // Span names are literals under our control, but the export must
      // be valid JSON whatever they contain.
      name.clear();
      AppendJsonString(event.name, &name);
      // Chrome trace-event timestamps are microseconds; keep fractional
      // precision so sub-µs spans stay visible.
      std::fprintf(file,
                   "%s{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                   first ? "" : ",", name.c_str(),
                   static_cast<double>(event.start_ns) / 1000.0,
                   static_cast<double>(event.dur_ns) / 1000.0, buffer->tid);
      first = false;
    }
  }
  std::fprintf(file, "],\"dropped_events\":%llu}\n",
               static_cast<unsigned long long>(dropped));
  bool ok = std::fclose(file) == 0;
  return ok;
}

void TraceRecorder::Clear() {
  for (ThreadBuffer* buffer : impl().AllBuffers()) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

size_t TraceRecorder::event_count() const {
  size_t total = 0;
  for (ThreadBuffer* buffer : impl().AllBuffers()) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

uint64_t TraceRecorder::dropped_count() const {
  uint64_t total = 0;
  for (ThreadBuffer* buffer : impl().AllBuffers()) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

void TraceRecorder::SetEventCapForTesting(size_t cap) {
  g_max_events_per_thread.store(cap > 0 ? cap : kDefaultMaxEventsPerThread,
                                std::memory_order_relaxed);
}

}  // namespace crowdrl::obs
