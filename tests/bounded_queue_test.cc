// BoundedQueue: the MPSC channel between the materializer's fan-out
// workers and the thread consuming their roots. The tests pin the
// contract the fan-out relies on: backpressure actually blocks, producer
// errors surface exactly once at end of stream, and a departed consumer
// unblocks producers promptly.

#include "common/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace tcob {
namespace {

TEST(BoundedQueueTest, DeliversInFifoOrder) {
  BoundedQueue<int> q(/*capacity=*/8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  q.CloseProducer();
  for (int i = 0; i < 5; ++i) {
    std::optional<int> item = q.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_TRUE(q.producer_status().ok());
}

TEST(BoundedQueueTest, CapacityOneBlocksProducerUntilConsumed) {
  BoundedQueue<int> q(/*capacity=*/1);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q.Push(i));
      pushed.fetch_add(1);
    }
    q.CloseProducer();
  });
  // The producer can complete at most the first push (the second blocks
  // on the full queue); give it ample time to overrun if backpressure
  // were broken.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(pushed.load(), 1);
  EXPECT_EQ(q.Pop(), std::optional<int>(0));
  EXPECT_EQ(q.Pop(), std::optional<int>(1));
  EXPECT_EQ(q.Pop(), std::optional<int>(2));
  EXPECT_FALSE(q.Pop().has_value());
  producer.join();
  EXPECT_EQ(pushed.load(), 3);
}

TEST(BoundedQueueTest, ProducerErrorSurfacesAfterDrain) {
  BoundedQueue<int> q(/*capacity=*/8);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.CloseProducer(Status::Corruption("bad page"));
  // Buffered items still arrive, then end-of-stream with the error.
  EXPECT_TRUE(q.Pop().has_value());
  EXPECT_TRUE(q.Pop().has_value());
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_TRUE(q.producer_status().IsCorruption());
}

TEST(BoundedQueueTest, FirstProducerErrorWins) {
  BoundedQueue<int> q(/*capacity=*/8, /*producers=*/2);
  q.CloseProducer(Status::Corruption("first"));
  q.CloseProducer(Status::IOError("second"));
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_TRUE(q.producer_status().IsCorruption());
}

TEST(BoundedQueueTest, ConsumerAbandonUnblocksProducer) {
  BoundedQueue<int> q(/*capacity=*/1);
  std::atomic<bool> producer_done{false};
  std::thread producer([&] {
    int i = 0;
    while (q.Push(i)) ++i;  // blocks on backpressure until the close
    producer_done.store(true);
    q.CloseProducer();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(producer_done.load());
  q.CloseConsumer();
  producer.join();
  EXPECT_TRUE(producer_done.load());
}

TEST(BoundedQueueTest, PushAfterConsumerCloseReturnsFalse) {
  BoundedQueue<int> q(/*capacity=*/4);
  q.CloseConsumer();
  EXPECT_FALSE(q.Push(1));
}

// Multi-producer stress: run under TSan in CI (regex includes
// BoundedQueue). Every pushed item must arrive exactly once.
TEST(BoundedQueueTest, StressManyProducersOneConsumer) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  BoundedQueue<int> q(/*capacity=*/16, /*producers=*/kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
      q.CloseProducer();
    });
  }
  std::vector<int> seen(kProducers * kPerProducer, 0);
  size_t total = 0;
  while (std::optional<int> item = q.Pop()) {
    ASSERT_GE(*item, 0);
    ASSERT_LT(*item, kProducers * kPerProducer);
    ++seen[static_cast<size_t>(*item)];
    ++total;
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(total, static_cast<size_t>(kProducers) * kPerProducer);
  for (int count : seen) EXPECT_EQ(count, 1);
  EXPECT_TRUE(q.producer_status().ok());
}

}  // namespace
}  // namespace tcob
