// Figure 6 (reconstructed): past time-slice cost vs temporal distance.
//
// Employees carry 64 versions spanning [base, base+63*stride). The query
// materializes every DeptMol molecule VALID AT t, with t swept from the
// oldest decile of the history (decile 0) to the newest (decile 9).
// `chain_hops` reports the separated store's history-chain accesses.
//
// Expected shape: separated cost grows as t moves into the past (longer
// chain walks / deeper version-index positions); integrated is roughly
// flat (the whole cluster is read regardless of t); snapshot is flat and
// high (every version of an atom is visited no matter the instant).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "mad/materializer.h"
#include "tstore/separated_store.h"

namespace tcob {
namespace bench {
namespace {

void BM_TimeSlicePast(benchmark::State& state) {
  // Strategy code 3 = separated with the version index disabled (pure
  // chain walking), where the temporal-distance gradient is starkest.
  bool no_vidx = state.range(0) == 3;
  StorageStrategy strategy =
      no_vidx ? StorageStrategy::kSeparated
              : static_cast<StorageStrategy>(state.range(0));
  int decile = static_cast<int>(state.range(1));
  CompanyConfig config;
  config.depts = 10;
  config.emps_per_dept = 10;
  config.versions_per_atom = 64;
  BenchDb* bench_db = GetCompanyDb(strategy, config, !no_vidx);
  Database* db = bench_db->db.get();
  const MoleculeTypeDef* mol =
      db->catalog().GetMoleculeType(bench_db->handles.dept_mol).value();
  // Decile d of the update history: round ~ 64 * d / 10.
  Timestamp t = RoundTime(config, static_cast<uint32_t>(
                                      (config.versions_per_atom - 1) *
                                      decile / 9));

  const auto* separated =
      dynamic_cast<const SeparatedStore*>(db->store());
  uint64_t hops_before = separated ? separated->chain_hops() : 0;
  uint64_t passes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BenchCheck(db->pool()->Reset(), "cold cache");
    state.ResumeTiming();
    Materializer mat = db->materializer();
    size_t molecules = 0;
    Status s = mat.AllMoleculesAsOf(*mol, t, [&](Molecule m) {
      benchmark::DoNotOptimize(m.AtomCount());
      ++molecules;
      return Result<bool>(true);
    });
    BenchCheck(s, "past time slice");
    benchmark::DoNotOptimize(molecules);
    ++passes;
  }
  if (separated != nullptr && passes > 0) {
    state.counters["chain_hops"] =
        static_cast<double>(separated->chain_hops() - hops_before) /
        static_cast<double>(passes);
  }
  state.counters["t"] = static_cast<double>(t);
  state.SetLabel(no_vidx ? "separated_chain_walk"
                         : StorageStrategyName(strategy));
}

BENCHMARK(BM_TimeSlicePast)
    ->ArgNames({"strategy", "decile"})
    ->ArgsProduct({{0, 1, 2, 3}, {0, 3, 6, 9}})
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace tcob

TCOB_BENCH_MAIN();
