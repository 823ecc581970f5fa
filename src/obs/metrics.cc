#include "obs/metrics.h"

#include "obs/flight_recorder.h"
#include "obs/lifecycle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

namespace crowdrl::obs {

namespace internal {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_tracing{false};
}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void SetTracing(bool tracing) {
  internal::g_tracing.store(tracing, std::memory_order_relaxed);
}

void ApplyOptions(const ObsOptions& options) {
  if (options.enabled) SetEnabled(true);
  if (options.tracing) SetTracing(true);
  if (options.lifecycle) {
    SetEnabled(true);
    SetLifecycle(true);
  }
  if (options.flight_recorder) {
    SetEnabled(true);
    FlightRecorder::Get().Configure(options.flight_recorder_events);
  }
}

namespace {

// 1, 2, 3, ... while 1.25^i grows by less than one per step, then
// floor(1.25^i). Built at compile time.
constexpr std::array<uint64_t, Histogram::kNumBounds> MakeBounds() {
  std::array<uint64_t, Histogram::kNumBounds> bounds{};
  double geometric = 1.0;
  uint64_t previous = 0;
  for (uint64_t& bound : bounds) {
    bound = std::max(previous + 1, static_cast<uint64_t>(geometric));
    previous = bound;
    geometric *= 1.25;
  }
  return bounds;
}

constexpr std::array<uint64_t, Histogram::kNumBounds> kBounds = MakeBounds();
static_assert(kBounds.back() >= (uint64_t{1} << 40),
              "the bucket layout must cover 2^40");

// First bucket that can hold a value of bit width w: the bucket of
// 2^(w-1). A power of two spans at most six bounds, so recording is a
// table load and a short scan instead of a binary search.
constexpr std::array<uint8_t, 65> MakeFirstBucketByWidth() {
  std::array<uint8_t, 65> first{};
  for (size_t w = 1; w < first.size(); ++w) {
    const uint64_t low = uint64_t{1} << (w - 1);
    size_t i = 0;
    while (i < kBounds.size() && kBounds[i] < low) ++i;
    first[w] = static_cast<uint8_t>(i);
  }
  return first;
}

constexpr std::array<uint8_t, 65> kFirstBucketByWidth =
    MakeFirstBucketByWidth();

}  // namespace

uint64_t Histogram::BucketBound(size_t i) { return kBounds[i]; }

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

size_t Histogram::BucketIndex(uint64_t value) {
  size_t i = kFirstBucketByWidth[std::bit_width(value)];
  while (i < kNumBounds && kBounds[i] < value) ++i;
  return i;
}

void Histogram::Add(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < value &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  // One copy of the counts, so the walk sees a single view (concurrent
  // recorders race benignly: quantiles are summaries, not invariants).
  std::array<uint64_t, kNumBounds + 1> counts;
  uint64_t total = 0;
  for (size_t i = 0; i <= kNumBounds; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double top = static_cast<double>(max());
  const double rank = q * static_cast<double>(total - 1);
  uint64_t cumulative = 0;
  for (size_t i = 0; i <= kNumBounds; ++i) {
    if (counts[i] == 0) continue;
    const double first_rank = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (rank >= static_cast<double>(cumulative)) continue;
    // The integer samples of bucket i lie in [previous bound + 1, bound],
    // and none above the max; interpolate by rank inside that range.
    const double lo = i == 0 ? 0.0 : static_cast<double>(kBounds[i - 1] + 1);
    const double hi =
        i == kNumBounds ? top : std::min(top, static_cast<double>(kBounds[i]));
    const double frac =
        counts[i] == 1
            ? 0.5
            : (rank - first_rank) / static_cast<double>(counts[i] - 1);
    return lo + frac * std::max(0.0, hi - lo);
  }
  return top;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

// JSON has no Inf/NaN literals; map them to null so the file stays
// parseable by any consumer.
void AppendJsonDouble(double v, std::string* out) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendJsonUint(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

}  // namespace

HistogramSample HistogramSample::From(const Histogram& histogram) {
  HistogramSample sample;
  sample.count = histogram.count();
  sample.sum = histogram.sum();
  sample.max = histogram.max();
  sample.p50 = histogram.Quantile(0.50);
  sample.p90 = histogram.Quantile(0.90);
  sample.p99 = histogram.Quantile(0.99);
  return sample;
}

std::string HistogramSample::ToJson() const {
  std::string out = "{\"count\":";
  AppendJsonUint(count, &out);
  out += ",\"sum\":";
  AppendJsonUint(sum, &out);
  out += ",\"max\":";
  AppendJsonUint(max, &out);
  out += ",\"p50\":";
  AppendJsonDouble(p50, &out);
  out += ",\"p90\":";
  AppendJsonDouble(p90, &out);
  out += ",\"p99\":";
  AppendJsonDouble(p99, &out);
  out.push_back('}');
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out;
  out.reserve(256 + 64 * (counters.size() + gauges.size()) +
              160 * histograms.size());
  out += "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i) out.push_back(',');
    AppendJsonString(counters[i].name, &out);
    out.push_back(':');
    AppendJsonUint(counters[i].value, &out);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i) out.push_back(',');
    AppendJsonString(gauges[i].name, &out);
    out.push_back(':');
    AppendJsonDouble(gauges[i].value, &out);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    if (i) out.push_back(',');
    AppendJsonString(histograms[i].name, &out);
    out.push_back(':');
    out += histograms[i].ToJson();
  }
  out += "}}";
  return out;
}

// std::map keeps snapshots name-sorted; unique_ptr keeps metric addresses
// stable across rehashing-free inserts, which is what lets call sites
// cache raw pointers forever.
struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  // Leaked intentionally: metrics can be touched from static destructors
  // and detached threads, so the registry must outlive everything.
  static Impl* const impl = new Impl();
  return *impl;
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto& slot = im.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto& slot = im.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto& slot = im.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(im.counters.size());
  for (const auto& [name, c] : im.counters) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(im.gauges.size());
  for (const auto& [name, g] : im.gauges) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(im.histograms.size());
  for (const auto& [name, h] : im.histograms) {
    snap.histograms.push_back(HistogramSample::From(*h));
    snap.histograms.back().name = name;
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  for (auto& [name, c] : im.counters) c->Reset();
  for (auto& [name, g] : im.gauges) g->Reset();
  for (auto& [name, h] : im.histograms) h->Reset();
}

MetricsJsonlWriter::~MetricsJsonlWriter() { Close(); }

bool MetricsJsonlWriter::Open(const std::string& path) {
  Close();
  file_ = std::fopen(path.c_str(), "w");
  return file_ != nullptr;
}

void MetricsJsonlWriter::WriteRecord(size_t iteration,
                                     const MetricsSnapshot& snapshot) {
  if (!file_) return;
  std::string line = "{\"iteration\":";
  AppendJsonUint(iteration, &line);
  std::string body = snapshot.ToJson();
  // Splice the snapshot's fields into the record object.
  line.push_back(',');
  line.append(body, 1, body.size() - 1);  // Drop the snapshot's leading '{'.
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

void MetricsJsonlWriter::Flush() {
  if (file_) std::fflush(file_);
}

void MetricsJsonlWriter::Close() {
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace crowdrl::obs
