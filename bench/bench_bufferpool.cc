// Figure 11 (reconstructed): buffer-pool sensitivity of the current
// time slice.
//
// Steady-state current-world reconstruction (no cache reset between
// iterations) with pool capacities of {8, 16, 32, 256} pages, for the
// separated and integrated designs (250 employees, 32 versions/atom).
// `hit_rate` reports the buffer pool hit rate over the measurement.
//
// Expected shape: separated's current working set (current store +
// current index) fits in a small pool, so its curve flattens early;
// integrated drags every atom's full cluster through the pool, needs a
// much larger capacity to flatten, and thrashes at small pools.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "mad/materializer.h"

namespace tcob {
namespace bench {
namespace {

void BM_PoolSensitivity(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  size_t pool_pages = static_cast<size_t>(state.range(1));
  CompanyConfig config;
  config.depts = 25;
  config.emps_per_dept = 10;
  config.versions_per_atom = 32;
  BenchDb* bench_db = GetCompanyDb(strategy, config, true, pool_pages);
  Database* db = bench_db->db.get();
  const MoleculeTypeDef* mol =
      db->catalog().GetMoleculeType(bench_db->handles.dept_mol).value();

  // Warm the pool with one untimed pass.
  {
    Materializer mat = db->materializer();
    BenchCheck(mat.AllMoleculesAsOf(*mol, db->Now(),
                                    [](Molecule) { return Result<bool>(true); }),
               "warmup");
  }
  db->pool()->ResetStats();
  for (auto _ : state) {
    Materializer mat = db->materializer();
    Status s = mat.AllMoleculesAsOf(*mol, db->Now(), [](Molecule m) {
      benchmark::DoNotOptimize(m.AtomCount());
      return Result<bool>(true);
    });
    BenchCheck(s, "steady-state slice");
  }
  state.counters["hit_rate"] = db->pool()->stats().HitRate();
  state.counters["pool_pages"] = static_cast<double>(pool_pages);
  state.SetLabel(StorageStrategyName(strategy));
}

BENCHMARK(BM_PoolSensitivity)
    ->ArgNames({"strategy", "pool"})
    ->ArgsProduct({{1, 2}, {8, 16, 32, 256}})
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace tcob

TCOB_BENCH_MAIN();
