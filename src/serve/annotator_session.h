#ifndef CROWDRL_SERVE_ANNOTATOR_SESSION_H_
#define CROWDRL_SERVE_ANNOTATOR_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/flight_recorder.h"
#include "serve/answer_ingest.h"
#include "util/status.h"

namespace crowdrl::serve {

/// One dispatched annotation task, sitting in an annotator's inbox until
/// the annotator requests work. Same shape as CompletedAnswer — the
/// driver echoes it back through the ingest queue when done.
using WorkItem = CompletedAnswer;

/// \brief Connection registry and per-annotator work inboxes.
///
/// Annotators are simulated clients on their own threads: they Connect,
/// poll RequestWork when idle, eventually push the finished item into the
/// campaign's AnswerIngestQueue, and may Disconnect at any moment. The
/// pump reads ConnectedMask() to restrict selection to the live pool and
/// Dispatch()es planned work into inboxes.
///
/// Disconnecting abandons the inbox: the dropped seqs surface through
/// TakeAbandonedSeqs() so the pump can resolve them in its reorder
/// buffer. The agent keeps nothing per annotator that a disconnect would
/// invalidate; the next selection's ConnectedMask() simply leaves the
/// annotator's pairs out.
///
/// Annotator ids arrive from clients, so the client-facing calls reject
/// an id outside [0, num_annotators) and change nothing.
///
/// Thread-safe; every method takes the one registry mutex.
class AnnotatorSessionRegistry {
 public:
  AnnotatorSessionRegistry(size_t num_annotators, EventHub* hub = nullptr);

  /// InvalidArgument for an out-of-range id.
  Status Connect(int annotator);
  /// InvalidArgument for an out-of-range id.
  Status Disconnect(int annotator);
  void ConnectAll();

  /// False for an out-of-range id.
  bool connected(int annotator) const;
  std::vector<bool> ConnectedMask() const;
  size_t num_connected() const;

  /// Pump side: queue a planned task for its annotator. A task dispatched
  /// to an annotator that disconnected since planning is abandoned on the
  /// spot (its seq surfaces via TakeAbandonedSeqs), so plans never block
  /// on a gone annotator.
  void Dispatch(const WorkItem& item);

  /// Driver side: next queued task for this annotator, if any. Returns
  /// nullopt when the inbox is empty, the annotator is not connected, or
  /// the id is out of range.
  std::optional<WorkItem> RequestWork(int annotator);

  /// Pump side: seqs dropped by disconnects or CancelAllQueued since the
  /// last call.
  std::vector<uint64_t> TakeAbandonedSeqs();

  /// Pump side: drops every queued (undelivered) item — used when the
  /// budget ran out mid-round and the remaining work is moot, and by
  /// graceful shutdown. Delivered items still in an annotator's hands are
  /// not recalled; their completions are dropped by the reorder buffer if
  /// the round already resolved them.
  void CancelAllQueued();

  /// Items handed to annotators via RequestWork since construction (feeds
  /// the campaign's `delivered` counter; inbox starvation = work queued
  /// but this not moving).
  uint64_t delivered_count() const;
  /// Items currently sitting undelivered across every inbox (the
  /// campaign's `inbox_depth` gauge).
  size_t TotalQueued() const;

  /// Flight-recorder scope for connect/disconnect events (the owning
  /// campaign's ordinal). Set once by the campaign before serving starts.
  void set_flight_scope(uint16_t scope) { flight_scope_ = scope; }

 private:
  bool InRange(int annotator) const {
    return annotator >= 0 &&
           static_cast<size_t>(annotator) < connected_.size();
  }

  mutable std::mutex mu_;
  std::vector<uint8_t> connected_;
  std::vector<std::deque<WorkItem>> inbox_;
  std::vector<uint64_t> abandoned_seqs_;
  uint64_t delivered_ = 0;
  uint16_t flight_scope_ = 0;
  EventHub* hub_;
};

}  // namespace crowdrl::serve

#endif  // CROWDRL_SERVE_ANNOTATOR_SESSION_H_
