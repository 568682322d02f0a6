// Bounded typed channel — the producer→consumer hand-off of the online
// detection service (producers are request threads, the consumer is its
// micro-batching scheduler).
//
// Admission is either blocking (push: backpressure — the caller waits for
// space) or load-shedding (try_push: reject when full so the caller can
// fail fast). Consumers drain with pop_batch, which implements the
// dynamic micro-batch trigger: return as soon as `max_items` are
// available, or when `max_delay` has elapsed since the first pending item
// was seen, whichever comes first.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "util/error.h"

namespace opad {

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity) : capacity_(capacity) {
    OPAD_EXPECTS(capacity > 0);
  }

  /// Blocks while the channel is full (backpressure). Returns false — and
  /// drops `item` — only when the channel has been closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking admission: returns false when the channel is full (the
  /// caller sheds the item) or closed.
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Drains up to `max_items`. Blocks until at least one item is pending
  /// (or the channel is closed and empty — then returns an empty batch).
  /// Once the first item is in hand, waits at most `max_delay` for the
  /// batch to fill before returning what arrived.
  std::vector<T> pop_batch(std::size_t max_items,
                           std::chrono::microseconds max_delay) {
    std::vector<T> batch;
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return batch;  // closed and drained
    const auto deadline = std::chrono::steady_clock::now() + max_delay;
    while (items_.size() < max_items && !closed_) {
      if (not_empty_.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    const std::size_t take = std::min(max_items, items_.size());
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_all();
    return batch;
  }

  /// Closes the channel: pending items remain poppable, new pushes fail,
  /// and every blocked producer/consumer wakes up.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace opad
