#include "obs/lifecycle.h"

namespace crowdrl::obs {

namespace internal {
std::atomic<bool> g_lifecycle{false};
}  // namespace internal

void SetLifecycle(bool lifecycle) {
  internal::g_lifecycle.store(lifecycle, std::memory_order_relaxed);
}

const char* LifecycleStageName(LifecycleStage stage) {
  switch (stage) {
    case LifecycleStage::kDispatchToDeliver: return "dispatch_deliver";
    case LifecycleStage::kDeliverToArrive: return "deliver_arrive";
    case LifecycleStage::kArriveToCommit: return "arrive_commit";
    case LifecycleStage::kCommitToObserve: return "commit_observe";
  }
  return "unknown";
}

}  // namespace crowdrl::obs
