#include "serve/annotator_session.h"

#include <string>

#include "obs/lifecycle.h"
#include "util/logging.h"

namespace crowdrl::serve {

AnnotatorSessionRegistry::AnnotatorSessionRegistry(size_t num_annotators,
                                                   EventHub* hub)
    : connected_(num_annotators, 0),
      inbox_(num_annotators),
      hub_(hub) {
  CROWDRL_CHECK(num_annotators > 0);
}

namespace {

Status OutOfRange(int annotator) {
  return Status::InvalidArgument("annotator id " + std::to_string(annotator) +
                                 " is out of range");
}

}  // namespace

Status AnnotatorSessionRegistry::Connect(int annotator) {
  if (!InRange(annotator)) return OutOfRange(annotator);
  {
    std::lock_guard<std::mutex> lock(mu_);
    connected_[static_cast<size_t>(annotator)] = 1;
  }
  obs::RecordFlightEvent(obs::FlightEventType::kSessionConnect, flight_scope_,
                         static_cast<uint64_t>(annotator));
  if (hub_ != nullptr) hub_->Notify();
  return Status::Ok();
}

Status AnnotatorSessionRegistry::Disconnect(int annotator) {
  if (!InRange(annotator)) return OutOfRange(annotator);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t j = static_cast<size_t>(annotator);
    if (!connected_[j]) return Status::Ok();
    connected_[j] = 0;
    for (const WorkItem& item : inbox_[j]) {
      abandoned_seqs_.push_back(item.seq);
    }
    inbox_[j].clear();
  }
  obs::RecordFlightEvent(obs::FlightEventType::kSessionDisconnect,
                         flight_scope_, static_cast<uint64_t>(annotator));
  if (hub_ != nullptr) hub_->Notify();
  return Status::Ok();
}

void AnnotatorSessionRegistry::ConnectAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint8_t& c : connected_) c = 1;
}

bool AnnotatorSessionRegistry::connected(int annotator) const {
  if (!InRange(annotator)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return connected_[static_cast<size_t>(annotator)] != 0;
}

std::vector<bool> AnnotatorSessionRegistry::ConnectedMask() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<bool> mask(connected_.size());
  for (size_t j = 0; j < connected_.size(); ++j) {
    mask[j] = connected_[j] != 0;
  }
  return mask;
}

size_t AnnotatorSessionRegistry::num_connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (uint8_t c : connected_) count += c;
  return count;
}

void AnnotatorSessionRegistry::Dispatch(const WorkItem& item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CROWDRL_CHECK(item.annotator >= 0 &&
                  static_cast<size_t>(item.annotator) < inbox_.size());
    const size_t j = static_cast<size_t>(item.annotator);
    if (!connected_[j]) {
      // Disconnect raced the dispatch; hand the seq straight back.
      abandoned_seqs_.push_back(item.seq);
    } else {
      inbox_[j].push_back(item);
    }
  }
  if (hub_ != nullptr) hub_->Notify();
}

std::optional<WorkItem> AnnotatorSessionRegistry::RequestWork(int annotator) {
  if (!InRange(annotator)) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const size_t j = static_cast<size_t>(annotator);
  if (!connected_[j] || inbox_[j].empty()) return std::nullopt;
  WorkItem item = inbox_[j].front();
  inbox_[j].pop_front();
  ++delivered_;
  // Deliver stamp: the dispatch→deliver edge ends here (inbox queueing is
  // inside it); the item carries the stamp back through the driver.
  if (obs::LifecycleEnabled()) item.deliver_ns = obs::NowNs();
  return item;
}

uint64_t AnnotatorSessionRegistry::delivered_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

size_t AnnotatorSessionRegistry::TotalQueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const std::deque<WorkItem>& inbox : inbox_) total += inbox.size();
  return total;
}

std::vector<uint64_t> AnnotatorSessionRegistry::TakeAbandonedSeqs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  out.swap(abandoned_seqs_);
  return out;
}

void AnnotatorSessionRegistry::CancelAllQueued() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::deque<WorkItem>& inbox : inbox_) {
    for (const WorkItem& item : inbox) {
      abandoned_seqs_.push_back(item.seq);
    }
    inbox.clear();
  }
}

}  // namespace crowdrl::serve
