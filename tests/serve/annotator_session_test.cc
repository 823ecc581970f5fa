// Unit tests for the annotator connection registry: inbox dispatch and
// delivery, the disconnect lifecycle (abandoned seqs surfacing to the
// pump), queued-work cancellation, and rejection of out-of-range client
// ids.

#include "serve/annotator_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

namespace crowdrl::serve {
namespace {

WorkItem Item(uint64_t seq, int annotator, int object = 0) {
  WorkItem item;
  item.seq = seq;
  item.annotator = annotator;
  item.object = object;
  return item;
}

TEST(AnnotatorSessionTest, ConnectDisconnectLifecycle) {
  AnnotatorSessionRegistry registry(3);
  EXPECT_EQ(registry.num_connected(), 0u);
  EXPECT_FALSE(registry.connected(0));

  registry.Connect(1);
  EXPECT_TRUE(registry.connected(1));
  EXPECT_EQ(registry.num_connected(), 1u);
  std::vector<bool> mask = registry.ConnectedMask();
  ASSERT_EQ(mask.size(), 3u);
  EXPECT_FALSE(mask[0]);
  EXPECT_TRUE(mask[1]);

  registry.ConnectAll();
  EXPECT_EQ(registry.num_connected(), 3u);

  registry.Disconnect(1);
  EXPECT_FALSE(registry.connected(1));
  EXPECT_EQ(registry.num_connected(), 2u);
  EXPECT_EQ(registry.ConnectedMask(), (std::vector<bool>{true, false, true}));
}

TEST(AnnotatorSessionTest, DispatchAndRequestWorkAreFifoPerAnnotator) {
  AnnotatorSessionRegistry registry(2);
  registry.ConnectAll();
  registry.Dispatch(Item(0, /*annotator=*/0, /*object=*/10));
  registry.Dispatch(Item(1, /*annotator=*/1, /*object=*/11));
  registry.Dispatch(Item(2, /*annotator=*/0, /*object=*/12));

  std::optional<WorkItem> a = registry.RequestWork(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->seq, 0u);
  EXPECT_EQ(a->object, 10);
  std::optional<WorkItem> b = registry.RequestWork(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->seq, 2u);
  EXPECT_FALSE(registry.RequestWork(0).has_value());  // Inbox empty.

  std::optional<WorkItem> c = registry.RequestWork(1);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->seq, 1u);
}

TEST(AnnotatorSessionTest, DisconnectAbandonsTheInboxButNotDeliveredWork) {
  AnnotatorSessionRegistry registry(2);
  registry.ConnectAll();
  registry.Dispatch(Item(0, /*annotator=*/0));
  registry.Dispatch(Item(1, /*annotator=*/0));

  // Item 0 was delivered before the disconnect: the driver keeps it and
  // is expected to push its completion; only the undelivered item 1 is
  // abandoned.
  std::optional<WorkItem> delivered = registry.RequestWork(0);
  ASSERT_TRUE(delivered.has_value());
  registry.Disconnect(0);

  std::vector<uint64_t> abandoned = registry.TakeAbandonedSeqs();
  ASSERT_EQ(abandoned.size(), 1u);
  EXPECT_EQ(abandoned[0], 1u);
  EXPECT_TRUE(registry.TakeAbandonedSeqs().empty());  // Consumed.

  // A disconnected annotator gets no work.
  EXPECT_FALSE(registry.RequestWork(0).has_value());
}

TEST(AnnotatorSessionTest, DispatchToDisconnectedAbandonsOnTheSpot) {
  AnnotatorSessionRegistry registry(2);
  registry.Connect(1);
  registry.Dispatch(Item(7, /*annotator=*/0));  // 0 never connected.
  std::vector<uint64_t> abandoned = registry.TakeAbandonedSeqs();
  ASSERT_EQ(abandoned.size(), 1u);
  EXPECT_EQ(abandoned[0], 7u);
}

TEST(AnnotatorSessionTest, ReconnectStartsWithAnEmptyInbox) {
  AnnotatorSessionRegistry registry(1);
  registry.Connect(0);
  registry.Dispatch(Item(0, 0));
  registry.Disconnect(0);
  registry.TakeAbandonedSeqs();
  registry.Connect(0);
  EXPECT_TRUE(registry.connected(0));
  EXPECT_FALSE(registry.RequestWork(0).has_value());
  // A second disconnect cycle works the same way.
  registry.Dispatch(Item(1, 0));
  registry.Disconnect(0);
  EXPECT_FALSE(registry.connected(0));
  EXPECT_EQ(registry.TakeAbandonedSeqs(), (std::vector<uint64_t>{1}));
}

TEST(AnnotatorSessionTest, CancelAllQueuedAbandonsEveryInbox) {
  AnnotatorSessionRegistry registry(3);
  registry.ConnectAll();
  registry.Dispatch(Item(0, 0));
  registry.Dispatch(Item(1, 1));
  registry.Dispatch(Item(2, 2));
  ASSERT_TRUE(registry.RequestWork(1).has_value());  // 1 is in flight.
  registry.CancelAllQueued();
  std::vector<uint64_t> abandoned = registry.TakeAbandonedSeqs();
  std::sort(abandoned.begin(), abandoned.end());
  ASSERT_EQ(abandoned.size(), 2u);
  EXPECT_EQ(abandoned[0], 0u);
  EXPECT_EQ(abandoned[1], 2u);
  // Annotators stay connected; only their queues were dropped.
  EXPECT_EQ(registry.num_connected(), 3u);
}

// Annotator ids come from clients: an out-of-range one is rejected
// without aborting and without touching any inbox or connection.
TEST(AnnotatorSessionTest, OutOfRangeIdsAreRejectedWithoutSideEffects) {
  AnnotatorSessionRegistry registry(3);
  ASSERT_TRUE(registry.Connect(0).ok());
  ASSERT_TRUE(registry.Connect(2).ok());
  registry.Dispatch(Item(0, /*annotator=*/0));
  registry.Dispatch(Item(1, /*annotator=*/2));
  for (int bad : {-1, 3}) {
    EXPECT_EQ(registry.Connect(bad).code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(registry.Disconnect(bad).code(),
              Status::Code::kInvalidArgument);
    EXPECT_FALSE(registry.connected(bad));
    EXPECT_FALSE(registry.RequestWork(bad).has_value());
  }
  EXPECT_EQ(registry.ConnectedMask(), (std::vector<bool>{true, false, true}));
  EXPECT_EQ(registry.TotalQueued(), 2u);
  EXPECT_EQ(registry.delivered_count(), 0u);
  EXPECT_TRUE(registry.TakeAbandonedSeqs().empty());
  // The valid sessions still work.
  std::optional<WorkItem> item = registry.RequestWork(2);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->seq, 1u);
}

}  // namespace
}  // namespace crowdrl::serve
