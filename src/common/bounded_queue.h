#ifndef TCOB_COMMON_BOUNDED_QUEUE_H_
#define TCOB_COMMON_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/status.h"

namespace tcob {

/// Bounded blocking multi-producer/single-consumer queue — the channel
/// between the materializer's fan-out workers and the one thread
/// consuming a query's roots.
///
/// Push blocks while `capacity` items are queued — that blocking is the
/// backpressure which keeps a slow consumer's memory flat no matter how
/// large the result is.
///
/// Shutdown protocol:
///  * every producer calls CloseProducer(status) exactly once; the first
///    non-OK status wins and is what the consumer sees after draining;
///  * Pop returns items until the queue is empty *and* all producers
///    have closed, then returns nullopt — the consumer then reads
///    producer_status() for the stream's fate;
///  * a consumer abandoning early calls CloseConsumer(); pending and
///    future Push calls drop their item and return false, which
///    producers treat as "stop producing". Items already queued are
///    destroyed with the queue.
template <typename T>
class BoundedQueue {
 public:
  /// `capacity` is the maximum number of queued items (> 0); `producers`
  /// is how many CloseProducer calls end the stream.
  explicit BoundedQueue(size_t capacity, size_t producers = 1)
      : capacity_(capacity == 0 ? 1 : capacity), producers_open_(producers) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until the item fits. Returns false — dropping the item — once
  /// the consumer has closed; the producer should stop then.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] {
      return consumer_closed_ || items_.size() < capacity_;
    });
    if (consumer_closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available; nullopt = every producer closed
  /// and the queue is drained (end of stream).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] {
      return !items_.empty() || producers_open_ == 0;
    });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_all();
    return item;
  }

  /// Ends this producer's side of the stream. The first non-OK status
  /// sticks and is reported by producer_status().
  void CloseProducer(Status status = Status::OK()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (producer_status_.ok() && !status.ok()) {
      producer_status_ = std::move(status);
    }
    if (producers_open_ > 0) --producers_open_;
    if (producers_open_ == 0) not_empty_.notify_all();
  }

  /// Consumer abandons the stream: unblocks all producers, whose Push
  /// calls return false from now on.
  void CloseConsumer() {
    std::lock_guard<std::mutex> lock(mu_);
    consumer_closed_ = true;
    not_full_.notify_all();
  }

  /// First non-OK status any producer closed with (OK = clean stream).
  /// Complete once Pop has returned nullopt.
  Status producer_status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return producer_status_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;   // producers: an item may fit now
  std::condition_variable not_empty_;  // consumer: item or end of stream
  std::deque<T> items_;
  const size_t capacity_;
  size_t producers_open_;
  bool consumer_closed_ = false;
  Status producer_status_ = Status::OK();
};

}  // namespace tcob

#endif  // TCOB_COMMON_BOUNDED_QUEUE_H_
