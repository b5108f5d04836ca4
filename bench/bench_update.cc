// Table 2 (reconstructed): update costs per physical design.
//
// Latency of the three mutations against employees that already carry a
// history of {1, 16, 64} versions:
//   update    close the live version, open a successor
//   insert    brand-new atom (history length is irrelevant; baseline row)
//
// Expected shape: snapshot updates are cheap appends at any history
// length; separated adds one history append; integrated rewrites the
// whole version cluster, so its update cost grows with history length.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace tcob {
namespace bench {
namespace {

CompanyConfig ConfigFor(int64_t versions) {
  CompanyConfig config;
  config.depts = 10;
  config.emps_per_dept = 10;
  config.versions_per_atom = static_cast<uint32_t>(versions);
  return config;
}

void BM_UpdateAtom(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  CompanyConfig config = ConfigFor(state.range(1));
  BenchDb* bench_db = GetCompanyDb(strategy, config);
  Database* db = bench_db->db.get();

  size_t cursor = 0;
  for (auto _ : state) {
    AtomId emp =
        bench_db->handles.emps[cursor++ % bench_db->handles.emps.size()];
    Timestamp t = db->Now();
    Status s = db->UpdateAtom(
        "Emp", emp,
        {{"name", Value::String("bench")},
         {"salary", Value::Int(static_cast<int64_t>(cursor))},
         {"rank", Value::Int(1)}},
        t);
    BenchCheck(s, "update");
  }
  state.SetLabel(StorageStrategyName(strategy));
}

// Fixed iteration count: the measured history drifts by only
// iterations / #employees extra versions.
BENCHMARK(BM_UpdateAtom)
    ->ArgNames({"strategy", "versions"})
    ->ArgsProduct({{0, 1, 2}, {1, 16, 64}})
    ->Iterations(300)
    ->Unit(benchmark::kMicrosecond);

void BM_InsertAtom(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  CompanyConfig config = ConfigFor(16);
  BenchDb* bench_db = GetCompanyDb(strategy, config);
  Database* db = bench_db->db.get();

  for (auto _ : state) {
    auto id = db->InsertAtomValues(
        "Emp",
        {Value::String("fresh"), Value::Int(1), Value::Int(1)}, db->Now());
    BenchCheck(id.status(), "insert");
    benchmark::DoNotOptimize(id.value());
  }
  state.SetLabel(StorageStrategyName(strategy));
}

BENCHMARK(BM_InsertAtom)
    ->ArgNames({"strategy"})
    ->ArgsProduct({{0, 1, 2}})
    ->Iterations(300)
    ->Unit(benchmark::kMicrosecond);

void BM_DeleteAtom(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  CompanyConfig config = ConfigFor(static_cast<uint32_t>(state.range(1)));
  BenchDb* bench_db = GetCompanyDb(strategy, config);
  Database* db = bench_db->db.get();

  // Deleting is a one-shot operation per atom: pre-insert victims outside
  // the timed region, delete them inside it.
  std::vector<AtomId> victims;
  for (auto _ : state) {
    state.PauseTiming();
    auto id = db->InsertAtomValues(
        "Emp", {Value::String("victim"), Value::Int(1), Value::Int(1)},
        db->Now());
    BenchCheck(id.status(), "insert victim");
    Timestamp t = db->Now();
    state.ResumeTiming();
    BenchCheck(db->DeleteAtom("Emp", id.value(), t), "delete");
  }
  state.SetLabel(StorageStrategyName(strategy));
}

BENCHMARK(BM_DeleteAtom)
    ->ArgNames({"strategy", "versions"})
    ->ArgsProduct({{0, 1, 2}, {16}})
    ->Iterations(200)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace tcob

TCOB_BENCH_MAIN();
