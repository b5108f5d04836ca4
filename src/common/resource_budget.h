#ifndef TCOB_COMMON_RESOURCE_BUDGET_H_
#define TCOB_COMMON_RESOURCE_BUDGET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/trace_ring.h"

namespace tcob {

/// Lock-free global byte accounting with an optional hard cap.
///
/// Memory consumers that can grow with the data — version-cache pins,
/// a cursor's buffered rows, cold-segment decode buffers — charge their
/// bytes here and release them when done. TryCharge never blocks: past
/// the cap it refuses (and counts the rejection) and the caller sheds
/// load instead — the materializer drops its pinned cache between roots,
/// the cursor keeps streaming with what it has. A refused charge is
/// never fatal, so a lone over-cap query still completes; what the cap
/// guarantees is that the *charged* total never exceeds it.
///
/// A cap of 0 means unlimited: every charge succeeds but the accounting
/// (current + peak) still runs, which is how the benchmarks measure the
/// unbounded peak a cap should be set against.
class ResourceBudget {
 public:
  explicit ResourceBudget(uint64_t cap_bytes = 0) : cap_(cap_bytes) {}

  ResourceBudget(const ResourceBudget&) = delete;
  ResourceBudget& operator=(const ResourceBudget&) = delete;

  /// Attempts to charge `bytes`; false (and a rejection tick) past the
  /// cap. Never blocks.
  bool TryCharge(uint64_t bytes) {
    uint64_t cur = charged_.load(std::memory_order_relaxed);
    for (;;) {
      if (cap_ != 0 && cur + bytes > cap_) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        TraceEmit(trace_, TraceEventType::kBudgetRefusal, bytes);
        return false;
      }
      if (charged_.compare_exchange_weak(cur, cur + bytes,
                                         std::memory_order_relaxed)) {
        break;
      }
    }
    uint64_t now = cur + bytes;
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
    return true;
  }

  void Release(uint64_t bytes) {
    charged_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  uint64_t cap() const { return cap_; }
  uint64_t charged() const {
    return charged_.load(std::memory_order_relaxed);
  }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }

 private:
  const uint64_t cap_;
  std::atomic<uint64_t> charged_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> rejected_{0};
  TraceRecorder* trace_ = nullptr;
};

/// Per-query view of a ResourceBudget: tracks what this one query has
/// charged (and its peak), releases everything it still holds on
/// destruction, and remembers — as `overflow` — the bytes the global
/// budget refused, so callers can both report accurate per-query memory
/// and detect budget pressure (TakePressure) to shed their caches.
///
/// Thread-safe: one query's charges arrive from the thread stepping its
/// cursor and every fan-out worker concurrently. A null budget means "account
/// locally, never refuse".
class BudgetLease {
 public:
  explicit BudgetLease(ResourceBudget* budget = nullptr) : budget_(budget) {}

  BudgetLease(const BudgetLease&) = delete;
  BudgetLease& operator=(const BudgetLease&) = delete;

  ~BudgetLease() {
    uint64_t held = charged_.load(std::memory_order_relaxed);
    if (budget_ != nullptr && held > 0) budget_->Release(held);
  }

  /// Charges `bytes` against the global budget. On refusal the bytes are
  /// recorded as overflow (the caller proceeds uncharged) and the
  /// pressure flag is raised.
  bool Charge(uint64_t bytes) {
    if (budget_ != nullptr && !budget_->TryCharge(bytes)) {
      overflow_.fetch_add(bytes, std::memory_order_relaxed);
      pressure_.store(true, std::memory_order_release);
      TraceEmit(budget_->trace(), TraceEventType::kBudgetPressure, bytes);
      return false;
    }
    uint64_t now =
        charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
    return true;
  }

  /// Releases `charged_bytes` back to the budget and forgets
  /// `overflow_bytes` of refused weight (callers that tracked both).
  void Release(uint64_t charged_bytes, uint64_t overflow_bytes = 0) {
    if (charged_bytes > 0) {
      charged_.fetch_sub(charged_bytes, std::memory_order_relaxed);
      if (budget_ != nullptr) budget_->Release(charged_bytes);
    }
    if (overflow_bytes > 0) {
      overflow_.fetch_sub(overflow_bytes, std::memory_order_relaxed);
    }
  }

  /// True once any charge was refused since the last call; clears the
  /// flag. Cache owners poll this between roots and trim when set.
  bool TakePressure() {
    return pressure_.exchange(false, std::memory_order_acq_rel);
  }

  uint64_t charged() const {
    return charged_.load(std::memory_order_relaxed);
  }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  ResourceBudget* budget() const { return budget_; }

 private:
  ResourceBudget* budget_;
  std::atomic<uint64_t> charged_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> overflow_{0};
  std::atomic<bool> pressure_{false};
};

/// Database-level admission gate: at most `max_inflight` queries hold a
/// slot at once; later arrivals wait (bounded by a timeout and by the
/// query's own deadline/cancel token) and are refused with a clean
/// DeadlineExceeded when the wait runs out. 0 = gate disabled.
class AdmissionController {
 public:
  explicit AdmissionController(size_t max_inflight = 0)
      : max_inflight_(max_inflight) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Blocks until a slot frees, the timeout elapses, or `ctx` (may be
  /// null) cancels/expires. On OK the caller owns a slot and must
  /// Release() exactly once.
  Status Acquire(const QueryContext* ctx, uint64_t timeout_micros);

  void Release();

  size_t max_inflight() const { return max_inflight_; }
  size_t inflight() const;
  /// Queries currently blocked waiting for a slot.
  size_t queue_depth() const;
  /// High-water mark of the wait queue since construction.
  size_t peak_queue_depth() const;
  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  const size_t max_inflight_;
  TraceRecorder* trace_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  size_t inflight_ = 0;
  size_t waiting_ = 0;
  size_t peak_waiting_ = 0;
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace tcob

#endif  // TCOB_COMMON_RESOURCE_BUDGET_H_
