// Self-tests of the benchmark's own code: the statistics it reports, the
// tail-percentile sample rule, the determinism of its generators, and
// its span bookkeeping. Run through `python3 perfbench/run.py --self-test`,
// which also validates the Chrome trace this binary writes.
//
// Usage: perfbench_selftest [SPANS_JSON_OUT]

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

bool NearAll(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!Near(a[i], b[i])) return false;
  }
  return true;
}

void TestMedianAndQuartiles() {
  using perfbench::Median;
  using perfbench::Quartiles;
  EXPECT(Near(Median({}), 0));
  EXPECT(Near(Median({3}), 3));
  EXPECT(Near(Median({5, 1, 3}), 3));
  EXPECT(Near(Median({4, 1, 3, 2}), 2.5));
  // Reference values from Python's statistics.quantiles(data, n=4).
  EXPECT(NearAll(Quartiles({1, 2}), {0.75, 1.5, 2.25}));
  EXPECT(NearAll(Quartiles({1, 2, 3}), {1.0, 2.0, 3.0}));
  EXPECT(NearAll(Quartiles({1, 2, 3, 4}), {1.25, 2.5, 3.75}));
  EXPECT(NearAll(Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                 {2.75, 5.5, 8.25}));
  EXPECT(NearAll(Quartiles({5, 1, 9, 3, 7, 2, 8}), {2.0, 5.0, 8.0}));
}

void TestTailRule() {
  using perfbench::HighestSupportedPermille;
  using perfbench::SamplesBeyond;
  // p99 of 1000 samples is the 990th; exactly ten lie beyond it.
  EXPECT(SamplesBeyond(1000, 990) == 10);
  EXPECT(HighestSupportedPermille(1000) == 990);
  EXPECT(HighestSupportedPermille(999) == 950);
  EXPECT(HighestSupportedPermille(10000) == 999);
  EXPECT(HighestSupportedPermille(9999) == 990);
  EXPECT(HighestSupportedPermille(200) == 950);
  EXPECT(HighestSupportedPermille(20) == 500);
  EXPECT(HighestSupportedPermille(19) == 0);

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const perfbench::LatencySummary s = perfbench::Summarize(v);
  EXPECT(s.count == 1000);
  EXPECT(Near(s.p50, 500.5));
  EXPECT(Near(s.p99, 990));
  EXPECT(s.supported_permille == 990);
}

void TestWindows() {
  using perfbench::SummarizeWindows;
  // Two windows of five, medians 8 and 3 (the slower first): the median
  // is their lower quartile (nearest rank), here the smaller; the p99
  // keeps the faster half, here the second window.
  const perfbench::WindowedLatency w =
      SummarizeWindows({{6, 7, 8, 9, 10, 1, 2, 3, 4, 5}}, 5, 5);
  EXPECT(w.windows == 2);
  EXPECT(w.count == 10);
  EXPECT(NearAll(w.window_p50s, {8, 3}));
  EXPECT(Near(w.p50, 3));
  EXPECT(Near(w.p99, 5));
  EXPECT(w.tail_windows == 1);
  // More of the fastest windows are kept until they hold a tail window.
  EXPECT(Near(SummarizeWindows({{6, 7, 8, 9, 10, 1, 2, 3, 4, 5}}, 5, 6).p99,
              10));
  // Windows cross epoch boundaries; a short tail joins the last window.
  const perfbench::WindowedLatency t =
      SummarizeWindows({{1, 2}, {3, 4, 5, 6}, {7}}, 3, 3);
  EXPECT(t.windows == 2);
  EXPECT(t.count == 7);
  EXPECT(Near(t.p50, 2));
  // One slow window out of eight moves neither the median nor the p99:
  // the four fastest windows are kept, in run order, and cut into two
  // tail windows (p99s 101 and 104) of 200 samples.
  std::vector<std::vector<double>> epochs;
  for (int e = 0; e < 8; ++e) {
    epochs.push_back(std::vector<double>(100, e == 3 ? 900.0 : 100.0 + e));
  }
  const perfbench::WindowedLatency b = SummarizeWindows(epochs, 100, 200);
  EXPECT(b.windows == 8);
  EXPECT(Near(b.p50, 101));
  EXPECT(Near(b.p99, 101));
  EXPECT(b.tail_windows == 2);
  EXPECT(b.supported_permille == 950);
  EXPECT(Near(perfbench::UpperQuartile({1, 2, 3, 4, 5, 6, 7, 8}), 6));
}

void TestGeneratorIsPureInSeed() {
  using perfbench::RenderStream;
  using perfbench::StreamRole;
  for (const perfbench::WorkloadConfig& w : perfbench::Workloads()) {
    for (StreamRole role : {StreamRole::kReader, StreamRole::kWriter}) {
      const std::string a = RenderStream(w, 7, role, 0, 2000);
      const std::string b = RenderStream(w, 7, role, 0, 2000);
      const std::string other_seed = RenderStream(w, 8, role, 0, 2000);
      const std::string other_client = RenderStream(w, 7, role, 1, 2000);
      EXPECT(!a.empty());
      EXPECT(a == b);
      EXPECT(a != other_seed);
      EXPECT(a != other_client);
    }
    // Generating on another thread, interleaved with other streams,
    // changes nothing.
    std::string threaded;
    std::thread th([&] {
      perfbench::OpStream noise(w, 9, StreamRole::kReader, 0);
      for (int i = 0; i < 100; ++i) noise.Next();
      threaded = RenderStream(w, 7, StreamRole::kReader, 0, 2000);
    });
    th.join();
    EXPECT(threaded == RenderStream(w, 7, StreamRole::kReader, 0, 2000));
  }
}

void TestWorkloadShapes() {
  const perfbench::WorkloadConfig* lookup =
      perfbench::FindWorkload("lookup_hot");
  EXPECT(lookup != nullptr);
  EXPECT(lookup->shape.atoms_per_molecule() == 21);
  EXPECT(perfbench::FindWorkload("nope") == nullptr);
  // Every lookup statement names one department and binds one instant.
  perfbench::OpStream s(*lookup, 3, perfbench::StreamRole::kReader, 0);
  int now = 0;
  for (int i = 0; i < 1000; ++i) {
    const perfbench::Op op = s.Next();
    EXPECT(op.dept < lookup->shape.depts);
    EXPECT(op.mql.find("WHERE Dept.name = 'd" + std::to_string(op.dept) +
                       "'") != std::string::npos);
    now += op.at_now ? 1 : 0;
  }
  EXPECT(now > 600 && now < 800);  // 70% VALID AT NOW
  // Writers alternate auto-commit and 2-3 update transactions over
  // distinct employees.
  const perfbench::WorkloadConfig* mix = perfbench::FindWorkload("update_mix");
  perfbench::OpStream w(*mix, 3, perfbench::StreamRole::kWriter, 0);
  for (int i = 0; i < 200; ++i) {
    const perfbench::Op op = w.Next();
    const bool txn = op.kind == perfbench::OpKind::kTxnUpdate;
    EXPECT(txn == (i % 2 == 1));
    EXPECT(txn ? op.emps.size() >= 2 && op.emps.size() <= 3
               : op.emps.size() == 1);
    for (size_t a = 0; a < op.emps.size(); ++a) {
      for (size_t b = a + 1; b < op.emps.size(); ++b) {
        EXPECT(op.emps[a] != op.emps[b]);
      }
    }
  }
}

void TestSpans(const std::string& json_out) {
  using perfbench::ScopedSpan;
  using perfbench::SpanLane;
  const auto origin = perfbench::Clock::now();
  SpanLane a("a", origin);
  SpanLane b("b", origin);
  for (int op = 1; op <= 3; ++op) {
    ScopedSpan root(&a, "client.read", op);
    { ScopedSpan child(&a, "db.query", op); }
    { ScopedSpan child(&a, "query.drain", op); }
    ScopedSpan other(&b, "client.write", op);
    { ScopedSpan child(&b, "db.commit", op); }
  }
  const auto self = perfbench::ComputeSelfTime({&a, &b});
  EXPECT(self.at("client.read").count == 3);
  EXPECT(self.at("db.query").count == 3);
  const perfbench::SelfTime& root = self.at("client.read");
  const double children =
      self.at("db.query").total_us + self.at("query.drain").total_us;
  EXPECT(Near(root.self_us, root.total_us - children));
  EXPECT(root.self_us >= 0);
  EXPECT(Near(self.at("db.query").self_us, self.at("db.query").total_us));
  // Null lanes record nothing.
  { ScopedSpan nothing(nullptr, "client.read", 9); }

  const std::string json = perfbench::ToChromeTraceJson({&a, &b});
  EXPECT(json.find("\"traceEvents\"") != std::string::npos);
  if (!json_out.empty()) std::ofstream(json_out) << json;
}

}  // namespace

int main(int argc, char** argv) {
  TestMedianAndQuartiles();
  TestTailRule();
  TestWindows();
  TestGeneratorIsPureInSeed();
  TestWorkloadShapes();
  TestSpans(argc > 1 ? argv[1] : "");
  if (failures > 0) {
    fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return 1;
  }
  printf("perfbench self-tests passed\n");
  return 0;
}
