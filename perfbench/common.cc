#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "perfbench.h"

namespace perfbench {

namespace {

// Spans stored per track for the trace file; later spans still count in
// the aggregates.
constexpr size_t kMaxStoredSpans = 200000;

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  double kb = 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double Accuracy(const std::vector<int>& labels,
                const std::vector<int>& truths) {
  if (truths.empty() || labels.size() != truths.size()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < truths.size(); ++i) {
    if (labels[i] == truths[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(truths.size());
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  // splitmix64 finalizer over (seed, tag): well-spread streams per tag.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0x7fffffffffffULL;
}

SpanRecorder::SpanRecorder(bool enabled, int tracks)
    : enabled_(enabled), epoch_ns_(NowNs()),
      tracks_(static_cast<size_t>(tracks)) {}

int SpanRecorder::Begin(int track, const char* name) {
  if (!enabled_) return -1;
  Track& t = tracks_[static_cast<size_t>(track)];
  const int32_t parent = t.open.empty() ? -1 : t.open.back().stored;
  int32_t stored = -1;
  const int64_t now = NowNs();
  if (t.spans.size() < kMaxStoredSpans) {
    stored = static_cast<int32_t>(t.spans.size());
    t.spans.push_back(Span{name, parent, now, now});
  } else {
    ++t.dropped;
  }
  t.open.push_back(OpenSpan{name, now, 0, stored});
  return static_cast<int>(t.open.size()) - 1;
}

void SpanRecorder::End(int track, int handle) {
  if (!enabled_ || handle < 0) return;
  Track& t = tracks_[static_cast<size_t>(track)];
  // Spans close innermost first (ScopedSpan guarantees it).
  if (static_cast<size_t>(handle) + 1 != t.open.size()) std::abort();
  const int64_t now = NowNs();
  const OpenSpan span = t.open.back();
  t.open.pop_back();
  const int64_t duration = now - span.start_ns;
  if (span.stored >= 0) t.spans[static_cast<size_t>(span.stored)].end_ns = now;
  if (!t.open.empty()) t.open.back().child_ns += duration;
  Aggregate& agg = t.aggregates[span.name];
  ++agg.count;
  agg.total_ms += static_cast<double>(duration) / 1e6;
  agg.self_ms += static_cast<double>(duration - span.child_ns) / 1e6;
}

std::map<std::string, SpanRecorder::Aggregate> SpanRecorder::Aggregates()
    const {
  std::map<std::string, Aggregate> merged;
  for (const Track& t : tracks_) {
    for (const auto& [name, agg] : t.aggregates) {
      Aggregate& out = merged[name];
      out.count += agg.count;
      out.total_ms += agg.total_ms;
      out.self_ms += agg.self_ms;
    }
  }
  return merged;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  uint64_t dropped = 0;
  std::fprintf(out, "{\"traceEvents\": [");
  bool first = true;
  for (size_t tid = 0; tid < tracks_.size(); ++tid) {
    const Track& t = tracks_[tid];
    dropped += t.dropped;
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      std::fprintf(out,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}",
                   first ? "" : ",", s.name, tid,
                   static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent);
      first = false;
    }
  }
  std::fprintf(out, "\n], \"dropped_spans\": %llu}\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(out) == 0;
}

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options) {
  if (options.workload == "batch-paper") return MakeBatchPaper(options);
  if (options.workload == "batch-widepool") return MakeBatchWidePool(options);
  if (options.workload == "serve-async") return MakeServeAsync(options);
  if (options.workload == "select-hier") return MakeSelectHier(options);
  return nullptr;
}

}  // namespace perfbench
