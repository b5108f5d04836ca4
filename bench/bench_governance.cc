// Resource governance and graceful degradation (EXPERIMENTS.md F20).
//
// Four claims, one benchmark each:
//   abort_latency:  a deadline on a deep-history query aborts close to
//                   the deadline — counters report the p50/p99 overshoot
//                   (abort time minus armed deadline) in microseconds.
//   idle_overhead:  with every governance feature armed but never
//                   binding (huge budget, generous deadline, wide
//                   admission gate) a current time slice costs within
//                   noise of the ungoverned baseline.
//   budgeted_sweep: a full-history sweep under a memory budget capped at
//                   a fraction of its unbudgeted peak still completes,
//                   and the charged bytes never exceed the cap.
//   governance_fires: deterministic micro-scenarios that make the
//                   cancel / admission / retry instrumentation fire, so
//                   CI can assert the counters exist and move.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "storage/fault_env.h"
#include "storage/retry_env.h"

namespace tcob {
namespace bench {
namespace {

constexpr char kDeepHistory[] = "SELECT ALL FROM DeptMol HISTORY";
constexpr char kCurrentSlice[] = "SELECT ALL FROM DeptMol VALID AT NOW";

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(samples->size()));
  if (idx >= samples->size()) idx = samples->size() - 1;
  return (*samples)[idx];
}

/// Drains a cursor to completion (or error) with small pulls, so the
/// deadline check runs at every batch boundary.
Status DrainAll(Cursor* cursor, size_t batch_rows, uint64_t* rows) {
  std::vector<std::vector<Value>> batch;
  for (;;) {
    Result<size_t> pulled = cursor->NextBatch(batch_rows, &batch);
    if (!pulled.ok()) return pulled.status();
    *rows += pulled.value();
    if (pulled.value() < batch_rows) return Status::OK();
  }
}

/// A dedicated governed/ungoverned database pair per strategy (the
/// shared GetCompanyDb cache cannot carry open-time governance options).
Database* GetGovernedDb(StorageStrategy strategy, bool governed) {
  static std::map<std::string, std::unique_ptr<BenchDb>>* cache =
      new std::map<std::string, std::unique_ptr<BenchDb>>();
  std::string key = std::string(StorageStrategyName(strategy)) +
                    (governed ? "/governed" : "/plain") + "/t" +
                    std::to_string(BenchThreads());
  auto it = cache->find(key);
  if (it != cache->end()) return it->second->db.get();
  auto bench_db = std::make_unique<BenchDb>();
  bench_db->dir = std::make_unique<TempDir>();
  DatabaseOptions options;
  options.strategy = strategy;
  options.parallelism = BenchThreads();
  if (governed) {
    // Armed but never binding: idle-overhead measurements compare this
    // against the plain twin.
    options.default_query_deadline_micros = 10ull * 1000 * 1000;
    options.memory_budget_bytes = 4ull << 30;
    options.max_inflight_queries = 64;
  }
  auto db = Database::Open(bench_db->dir->path() + "/db", options);
  BenchCheck(db.status(), "open governed database");
  bench_db->db = std::move(db).value();
  CompanyConfig config;
  config.depts = 8;
  config.emps_per_dept = 8;
  config.versions_per_atom = BenchSmoke() ? 4 : 16;
  auto handles = BuildCompany(bench_db->db.get(), config);
  BenchCheck(handles.status(), "build governed workload");
  bench_db->handles = std::move(handles).value();
  Database* out = bench_db->db.get();
  (*cache)[key] = std::move(bench_db);
  return out;
}

// ---- abort latency ----------------------------------------------------

void BM_DeadlineAbortLatency(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  CompanyConfig config;
  config.depts = 10;
  config.emps_per_dept = 10;
  config.versions_per_atom = 64;
  BenchDb* bench_db = GetCompanyDb(strategy, config);
  Database* db = bench_db->db.get();

  // Short enough that a 64-version sweep can never finish (in smoke
  // mode the clamped 4-version sweep sometimes can — aborted_fraction
  // reports how often the deadline actually hit).
  const uint64_t deadline_us = 500;
  std::vector<double> overshoot_us;
  uint64_t aborted = 0, completed = 0;
  for (auto _ : state) {
    db->set_default_query_deadline(deadline_us);
    WallTimer timer;
    uint64_t rows = 0;
    auto cursor = db->Query(kDeepHistory);
    Status outcome = cursor.ok()
                         ? DrainAll(cursor.value().get(), 16, &rows)
                         : cursor.status();
    if (cursor.ok()) cursor.value()->Close();
    double elapsed = timer.ElapsedMicros();
    db->set_default_query_deadline(0);
    if (outcome.IsDeadlineExceeded()) {
      ++aborted;
      overshoot_us.push_back(
          std::max(0.0, elapsed - static_cast<double>(deadline_us)));
    } else {
      BenchCheck(outcome, "governed drain");
      ++completed;
    }
    benchmark::DoNotOptimize(rows);
  }
  state.counters["deadline_us"] = static_cast<double>(deadline_us);
  state.counters["aborted_fraction"] =
      aborted + completed > 0
          ? static_cast<double>(aborted) /
                static_cast<double>(aborted + completed)
          : 0;
  state.counters["abort_overshoot_p50_us"] = Percentile(&overshoot_us, 0.50);
  state.counters["abort_overshoot_p99_us"] = Percentile(&overshoot_us, 0.99);
  state.SetLabel(StorageStrategyName(strategy));
}

BENCHMARK(BM_DeadlineAbortLatency)
    ->ArgNames({"strategy"})
    ->ArgsProduct({{0, 1, 2}})
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// ---- idle overhead ----------------------------------------------------

void BM_GovernanceIdleOverhead(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  bool governed = state.range(1) != 0;
  Database* db = GetGovernedDb(strategy, governed);
  uint64_t rows = 0;
  for (auto _ : state) {
    auto cursor = db->Query(kCurrentSlice);
    BenchCheck(cursor.status(), "open slice");
    BenchCheck(DrainAll(cursor.value().get(), 64, &rows), "drain slice");
    cursor.value()->Close();
  }
  benchmark::DoNotOptimize(rows);
  state.counters["governed"] = governed ? 1 : 0;
  state.SetLabel(std::string(StorageStrategyName(strategy)) +
                 (governed ? "/governed" : "/plain"));
}

BENCHMARK(BM_GovernanceIdleOverhead)
    ->ArgNames({"strategy", "governed"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

// ---- flight-recorder overhead (streaming path) ------------------------

// Trace on/off twins over a cursor-drained current slice: unlike the
// bench_queries twin (materialized Execute), this one exercises the
// cursor's per-step span emits. The drop counters ride
// along so ring overwrite pressure under sustained load is visible in
// the artifact.
void BM_TraceOverheadStreaming(benchmark::State& state) {
  const bool trace_on = state.range(0) == 1;
  CompanyConfig config;
  config.depts = 8;
  config.emps_per_dept = 8;
  config.versions_per_atom = 16;
  BenchDb* bench_db =
      GetCompanyDb(StorageStrategy::kSnapshot, config, /*version_index=*/true,
                   /*pool_pages=*/1024, /*tiering=*/{}, trace_on);
  Database* db = bench_db->db.get();
  uint64_t rows = 0;
  for (auto _ : state) {
    auto cursor = db->Query(kCurrentSlice);
    BenchCheck(cursor.status(), "open traced slice");
    BenchCheck(DrainAll(cursor.value().get(), 64, &rows), "drain slice");
    cursor.value()->Close();
  }
  benchmark::DoNotOptimize(rows);
  uint64_t recorded = 0, dropped = 0;
  for (int i = 0; i < kTraceCategoryCount; ++i) {
    recorded += db->trace_recorder()->recorded(1u << i);
    dropped += db->trace_recorder()->dropped(1u << i);
  }
  state.counters["trace_events_recorded"] = static_cast<double>(recorded);
  state.counters["trace_events_dropped"] = static_cast<double>(dropped);
  state.SetLabel(trace_on ? "trace_on" : "trace_off");
}

BENCHMARK(BM_TraceOverheadStreaming)
    ->ArgNames({"trace"})
    ->Arg(0)
    ->Arg(1)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

// ---- budgeted full-history sweep --------------------------------------

void BM_BudgetedAllHistories(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  // Pass 1 (setup, unmeasured): the unbudgeted peak on the plain twin.
  Database* plain = GetGovernedDb(strategy, false);
  uint64_t rows = 0;
  {
    auto cursor = plain->Query(kDeepHistory);
    BenchCheck(cursor.status(), "open unbudgeted sweep");
    BenchCheck(DrainAll(cursor.value().get(), 64, &rows), "unbudgeted sweep");
    cursor.value()->Close();
  }
  uint64_t peak_unbounded = plain->memory_budget().peak();

  // Pass 2 (measured): the same sweep under a cap of 1/8 of that peak.
  static std::map<std::string, std::unique_ptr<BenchDb>>* cache =
      new std::map<std::string, std::unique_ptr<BenchDb>>();
  std::string key = std::string(StorageStrategyName(strategy)) + "/capped/t" +
                    std::to_string(BenchThreads());
  if (cache->find(key) == cache->end()) {
    auto bench_db = std::make_unique<BenchDb>();
    bench_db->dir = std::make_unique<TempDir>();
    DatabaseOptions options;
    options.strategy = strategy;
    options.parallelism = BenchThreads();
    options.memory_budget_bytes = peak_unbounded / 8 + 1;
    auto db = Database::Open(bench_db->dir->path() + "/db", options);
    BenchCheck(db.status(), "open capped database");
    bench_db->db = std::move(db).value();
    CompanyConfig config;
    config.depts = 8;
    config.emps_per_dept = 8;
    config.versions_per_atom = BenchSmoke() ? 4 : 16;
    auto handles = BuildCompany(bench_db->db.get(), config);
    BenchCheck(handles.status(), "build capped workload");
    bench_db->handles = std::move(handles).value();
    (*cache)[key] = std::move(bench_db);
  }
  Database* db = (*cache)[key]->db.get();
  uint64_t capped_rows = 0;
  for (auto _ : state) {
    capped_rows = 0;
    auto cursor = db->Query(kDeepHistory);
    BenchCheck(cursor.status(), "open budgeted sweep");
    BenchCheck(DrainAll(cursor.value().get(), 64, &capped_rows),
               "budgeted sweep");
    cursor.value()->Close();
  }
  const ResourceBudget& budget = db->memory_budget();
  state.counters["cap_bytes"] = static_cast<double>(budget.cap());
  state.counters["peak_charged_bytes"] = static_cast<double>(budget.peak());
  state.counters["unbounded_peak_bytes"] =
      static_cast<double>(peak_unbounded);
  state.counters["budget_rejections"] =
      static_cast<double>(budget.rejected());
  state.counters["rows"] = static_cast<double>(capped_rows);
  state.SetLabel(StorageStrategyName(strategy));
}

BENCHMARK(BM_BudgetedAllHistories)
    ->ArgNames({"strategy"})
    ->ArgsProduct({{0, 1, 2}})
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// ---- deterministic instrumentation firing ------------------------------

void BM_GovernanceFires(benchmark::State& state) {
  // One database with a tight admission gate; each iteration cancels a
  // cursor mid-stream, bounces a query off the full gate, and absorbs
  // injected transient read EIOs — so the cancelled/admission/retry
  // counters all provably move.
  static FaultInjectingIoEnv* env = new FaultInjectingIoEnv();
  static std::unique_ptr<Database>* held = []() {
    DatabaseOptions options;
    options.strategy = StorageStrategy::kSeparated;
    options.parallelism = BenchThreads();
    options.max_inflight_queries = 1;
    options.admission_timeout_micros = 1000;
    options.io_retry.max_attempts = 4;
    options.io_retry.base_backoff_micros = 1;
    options.io_retry.max_backoff_micros = 16;
    options.buffer_pool_pages = 16;  // keep reads hitting the disk
    options.env = env;
    auto db = Database::Open("govdb", options);
    BenchCheck(db.status(), "open fires database");
    CompanyConfig config;
    config.depts = 4;
    config.emps_per_dept = 4;
    config.versions_per_atom = 4;
    auto handles = BuildCompany(db.value().get(), config);
    BenchCheck(handles.status(), "build fires workload");
    return new std::unique_ptr<Database>(std::move(db).value());
  }();
  Database* db = held->get();
  for (auto _ : state) {
    auto cursor = db->Query(kDeepHistory);
    BenchCheck(cursor.status(), "open cancellable");
    std::vector<Value> row;
    BenchCheck(cursor.value()->Next(&row).status(), "first row");
    // Bounce a second query off the admission slot the open cursor
    // still holds (its finalize has not run yet).
    auto bounced = db->Query(kCurrentSlice);
    if (bounced.ok()) bounced.value()->Close();
    // Cancel mid-stream.
    cursor.value()->Cancel();
    uint64_t rows = 0;
    Status drained = DrainAll(cursor.value().get(), 16, &rows);
    if (!drained.IsCancelled() && !drained.ok()) {
      BenchCheck(drained, "cancelled drain");
    }
    cursor.value()->Close();
    // Absorb injected transient EIOs on a cold read.
    BenchCheck(db->pool()->Reset(), "cold cache");
    env->FailTransientReads(2);
    auto retried = db->Execute(kCurrentSlice);
    BenchCheck(retried.status(), "retried slice");
  }
  MetricsSnapshot snap = db->MetricsSnapshot();
  state.counters["query_cancelled_total"] = static_cast<double>(
      snap.CounterOr("tcob_query_cancelled_total"));
  state.counters["admission_rejected_total"] = static_cast<double>(
      snap.GaugeOr("tcob_admission_rejected_total"));
  state.counters["admission_peak_queue_depth"] = static_cast<double>(
      snap.GaugeOr("tcob_admission_peak_queue_depth"));
  state.counters["io_retries_total"] =
      static_cast<double>(snap.GaugeOr("tcob_io_retries_total"));
  state.SetLabel("separated/fires");
}

BENCHMARK(BM_GovernanceFires)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace tcob

TCOB_BENCH_MAIN();
