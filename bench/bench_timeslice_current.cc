// Figure 5 (reconstructed): current time-slice cost vs history length.
//
// Query: materialize every DeptMol molecule VALID AT NOW over a company
// database whose employees carry {1..128} versions. The reported time is
// one full "reconstruct the current world" pass; `pool_misses` counts
// buffer-pool misses per pass (cold cache each iteration).
//
// Expected shape: separated is flat in history length (the current store
// holds exactly the live versions); snapshot grows (the id index and the
// heap fill with old versions); integrated grows fastest (every cluster
// read drags the whole history through the pool).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "mad/materializer.h"

namespace tcob {
namespace bench {
namespace {

void BM_TimeSliceCurrent(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  CompanyConfig config;
  config.depts = 10;
  config.emps_per_dept = 10;
  config.versions_per_atom = static_cast<uint32_t>(state.range(1));
  BenchDb* bench_db = GetCompanyDb(strategy, config);
  Database* db = bench_db->db.get();
  const MoleculeTypeDef* mol =
      db->catalog().GetMoleculeType(bench_db->handles.dept_mol).value();

  uint64_t molecules = 0;
  uint64_t misses = 0;
  uint64_t passes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BenchCheck(db->pool()->Reset(), "cold cache");
    db->pool()->ResetStats();
    state.ResumeTiming();
    Materializer mat = db->materializer();
    molecules = 0;
    Status s = mat.AllMoleculesAsOf(*mol, db->Now(), [&](Molecule m) {
      benchmark::DoNotOptimize(m.AtomCount());
      ++molecules;
      return Result<bool>(true);
    });
    BenchCheck(s, "time slice");
    misses += db->pool()->stats().misses;
    ++passes;
  }
  state.counters["molecules"] = static_cast<double>(molecules);
  state.counters["pool_misses"] =
      static_cast<double>(misses) / static_cast<double>(passes);
  state.SetLabel(StorageStrategyName(strategy));
}

BENCHMARK(BM_TimeSliceCurrent)
    ->ArgNames({"strategy", "versions"})
    ->ArgsProduct({{0, 1, 2}, {1, 4, 16, 64, 128}})
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace tcob

TCOB_BENCH_MAIN();
