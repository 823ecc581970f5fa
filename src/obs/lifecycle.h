#ifndef CROWDRL_OBS_LIFECYCLE_H_
#define CROWDRL_OBS_LIFECYCLE_H_

#include <atomic>
#include <cstddef>

#include "obs/metrics.h"

/// \file
/// \brief Answer-lifecycle tracing: per-stage latency attribution for the
/// labelling service (DESIGN.md §15).
///
/// A served answer passes through four stage transitions:
///
///   dispatch → deliver   scheduler planned the pair → annotator took it
///                        (reorder-buffer head-of-line wait is upstream
///                        of this edge, inbox queueing is inside it)
///   deliver  → arrive    annotator think time (simulated or human)
///   arrive   → commit    ingest-queue wait + sequence-reorder wait; the
///                        commit stamp is when Environment::RequestAnswer
///                        actually ran
///   commit   → observe   revision-gated reward delay: how long a
///                        committed answer waited for a truth-inference
///                        swap (async mode) or the next plan (sync mode)
///                        before the agent observed its reward
///
/// The per-WorkItem trace context is the item itself: WorkItem /
/// CompletedAnswer carry monotonic stage timestamps (dispatch_ns,
/// deliver_ns, arrive_ns), stamped where each transition happens, so no
/// side lookup table exists and driver threads never touch shared
/// lifecycle state. The campaign pump thread records every stage latency
/// at commit / observe time, in nanoseconds, into the MetricsRegistry
/// histogram crowdrl.serve.<campaign>.lifecycle.<stage>; exporters read
/// them from the registry like any other metric.
///
/// Same contract as the rest of src/obs/: recording is gated on
/// LifecycleEnabled() (one relaxed load when disabled), options are
/// enable-only, hooks never touch RNG or numeric state (instrumented
/// serve runs stay byte-identical — proven by the bridge tests), and
/// CROWDRL_OBS_BUILD=0 compiles everything out.

namespace crowdrl::obs {

namespace internal {
extern std::atomic<bool> g_lifecycle;
}  // namespace internal

/// True when answer-lifecycle tracing is live (requires Enabled()).
inline bool LifecycleEnabled() {
#if CROWDRL_OBS_BUILD
  return internal::g_lifecycle.load(std::memory_order_relaxed) &&
         internal::g_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

void SetLifecycle(bool lifecycle);

/// The four stage transitions of a served answer, in pipeline order.
enum class LifecycleStage : int {
  kDispatchToDeliver = 0,
  kDeliverToArrive = 1,
  kArriveToCommit = 2,
  kCommitToObserve = 3,
};
inline constexpr size_t kNumLifecycleStages = 4;
const char* LifecycleStageName(LifecycleStage stage);

}  // namespace crowdrl::obs

#endif  // CROWDRL_OBS_LIFECYCLE_H_
