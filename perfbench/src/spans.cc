#include "spans.h"

#include <cstdio>
#include <queue>
#include <tuple>

namespace perfbench {

int SpanLane::Begin(const char* name, uint64_t op) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    open_.push_back(-1);
    return -1;
  }
  Span s;
  s.name = name;
  s.begin_us = NowUs();
  s.op = op;
  // A child of a dropped span becomes a root rather than misattributed.
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLane::End(int index) {
  if (!open_.empty()) open_.pop_back();
  if (index >= 0) spans_[static_cast<size_t>(index)].end_us = NowUs();
}

std::map<std::string, SelfTime> ComputeSelfTime(
    const std::vector<const SpanLane*>& lanes) {
  std::map<std::string, SelfTime> out;
  for (const SpanLane* lane : lanes) {
    const std::vector<Span>& spans = lane->spans();
    std::vector<double> child_us(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] += s.end_us - s.begin_us;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SelfTime& t = out[spans[i].name];
      const double dur = spans[i].end_us - spans[i].begin_us;
      ++t.count;
      t.total_us += dur;
      t.self_us += dur - child_us[i];
    }
  }
  return out;
}

namespace {

struct Event {
  double ts;
  bool begin;
  const Span* span;
};

/// One lane's B/E events in program order: a span's E comes after every
/// descendant's, before the next span that is not its descendant.
std::vector<Event> LaneEvents(const SpanLane& lane) {
  const std::vector<Span>& spans = lane.spans();
  std::vector<Event> events;
  std::vector<int> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() && stack.back() != spans[i].parent) {
      const Span& top = spans[static_cast<size_t>(stack.back())];
      events.push_back({top.end_us, false, &top});
      stack.pop_back();
    }
    events.push_back({spans[i].begin_us, true, &spans[i]});
    stack.push_back(static_cast<int>(i));
  }
  while (!stack.empty()) {
    const Span& top = spans[static_cast<size_t>(stack.back())];
    events.push_back({top.end_us, false, &top});
    stack.pop_back();
  }
  return events;
}

void AppendEvent(std::string* out, const Event& e, size_t tid) {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"%s\",\"ts\":%.3f,"
           "\"pid\":1,\"tid\":%zu,\"args\":{\"op\":%llu}}",
           e.span->name, e.begin ? "B" : "E", e.ts, tid,
           static_cast<unsigned long long>(e.span->op));
  out->append(buf);
}

}  // namespace

std::string ToChromeTraceJson(const std::vector<const SpanLane*>& lanes) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&]() {
    if (!first) out += ",\n";
    first = false;
  };
  for (size_t tid = 0; tid < lanes.size(); ++tid) {
    sep();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid + 1) + ",\"args\":{\"name\":\"" +
           lanes[tid]->name() + "\"}}";
  }
  // Merge the lanes by timestamp; each lane is already in order, so the
  // output never goes back in time and keeps every lane's nesting.
  std::vector<std::vector<Event>> per_lane;
  for (const SpanLane* lane : lanes) per_lane.push_back(LaneEvents(*lane));
  using Head = std::tuple<double, size_t, size_t>;  // ts, lane, position
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads;
  for (size_t l = 0; l < per_lane.size(); ++l) {
    if (!per_lane[l].empty()) heads.emplace(per_lane[l][0].ts, l, 0);
  }
  while (!heads.empty()) {
    auto [ts, l, pos] = heads.top();
    heads.pop();
    sep();
    AppendEvent(&out, per_lane[l][pos], l + 1);
    if (pos + 1 < per_lane[l].size()) {
      heads.emplace(per_lane[l][pos + 1].ts, l, pos + 1);
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
