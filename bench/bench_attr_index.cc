// Figure 12 (extension): secondary-index ablation for selective
// time-slice queries.
//
// Query: "departments with budget in a narrow range as of t" over {100, 400, 1600}
// departments, answered (a) by the full root scan and (b) via a
// version-grained attribute index on Dept.budget. The index prunes the
// root set before molecule materialization, so its advantage grows with
// the database size; the scan is linear in the number of departments.
//
// This experiment ablates a design choice DESIGN.md calls out: the
// paper-era system relies on full scans for value predicates; TCOB adds
// temporal attribute indexes as an extension.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace tcob {
namespace bench {
namespace {

/// Builds (cached) a company database and gives every department a
/// deterministic budget i*10, plus an index when `with_index`.
BenchDb* SetupDepts(size_t depts, bool with_index) {
  CompanyConfig config;
  config.depts = depts;
  config.emps_per_dept = 2;
  config.versions_per_atom = 4;
  // Cache separation between indexed / non-indexed variants: reuse the
  // version-index flag slot of the cache key.
  BenchDb* bench_db =
      GetCompanyDb(StorageStrategy::kSeparated, config, with_index);
  Database* db = bench_db->db.get();
  if (with_index &&
      !db->catalog().GetAttrIndexByName("idx_budget").ok()) {
    BenchCheck(db->CreateAttrIndex("idx_budget", "Dept", "budget").status(),
               "create index");
  }
  return bench_db;
}

void BM_SelectiveSlice(benchmark::State& state) {
  bool with_index = state.range(0) != 0;
  size_t depts = static_cast<size_t>(state.range(1));
  BenchDb* bench_db = SetupDepts(depts, with_index);
  Database* db = bench_db->db.get();
  // A selective predicate: hits at most a handful of departments
  // (budgets are random in [100, 1000); a narrow range).
  const std::string query =
      "SELECT Dept.name, Dept.budget FROM DeptMol "
      "WHERE Dept.budget >= 500 AND Dept.budget < 550 VALID AT NOW";

  size_t rows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BenchCheck(db->pool()->Reset(), "cold cache");
    state.ResumeTiming();
    auto result = db->Execute(query);
    BenchCheck(result.status(), "selective slice");
    rows = result.value().RowCount();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["depts"] = static_cast<double>(depts);
  state.SetLabel(with_index ? "attr_index" : "full_scan");
}

BENCHMARK(BM_SelectiveSlice)
    ->ArgNames({"index", "depts"})
    ->ArgsProduct({{0, 1}, {100, 400, 1600}})
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace tcob

TCOB_BENCH_MAIN();
