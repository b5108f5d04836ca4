#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed call into a layer. Names are "<layer>.<call>", e.g.
/// "db.query" or "storage.checkpoint"; "client.*" spans are the
/// benchmark's own ops and parent the layer calls they make.
struct Span {
  const char* name = "";
  double begin_us = 0;
  double end_us = 0;
  int parent = -1;  // index into the same lane, -1 for a root
  uint64_t op = 0;  // id shared by every span of one client op
};

/// The spans of one client thread, kept in memory until the run ends.
/// Single-writer: each client owns its lane.
class SpanLane {
 public:
  SpanLane(std::string name, Clock::time_point origin)
      : name_(std::move(name)), origin_(origin) {}

  /// Opens a span as a child of the innermost open span; returns its
  /// index, or -1 once the lane is full.
  int Begin(const char* name, uint64_t op);
  void End(int index);

  const std::string& name() const { return name_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  static constexpr size_t kMaxSpans = 400000;

  std::string name_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint64_t dropped_ = 0;
};

/// RAII span on an optional lane: a null lane (an untraced epoch)
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLane* lane, const char* name, uint64_t op)
      : lane_(lane), index_(lane ? lane->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLane* lane_;
  int index_;
};

/// Time per span name: how often it ran, its total duration, and its
/// self time (duration minus the part its child spans cover).
struct SelfTime {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Self time per span name over every lane.
std::map<std::string, SelfTime> ComputeSelfTime(
    const std::vector<const SpanLane*>& lanes);

/// Chrome trace_event JSON of every lane: one pid, one tid per lane,
/// spans as strictly nested B/E pairs, events in timestamp order.
std::string ToChromeTraceJson(const std::vector<const SpanLane*>& lanes);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
