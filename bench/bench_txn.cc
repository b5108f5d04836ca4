// F22: transaction commit throughput under concurrent writers.
//
// Committed-txns/sec at 1, 4 and 16 writer threads, with group commit
// on vs. off, for explicit transactions (Begin/InsertAtom/Commit) and
// for auto-commit statements (Database::InsertAtom). Every writer
// commits small disjoint writes (each inserts a fresh atom, so
// first-committer-wins validation never fires) against a sync_wal
// database: each commit must be durable before it returns. With group
// commit off every commit pays its own fsync; with it on, concurrent
// committers queue and one leader fsyncs for the whole group, so
// throughput should scale with writers instead of flatlining at the
// fsync rate. Auto-commit statements take the same commit pipeline as
// transactions, so they group the same way.
//
// Reported counters, per run: wal_fsyncs (completed fsyncs) and
// group_size_mean (mean commits per group fsync, from the
// tcob_wal_group_commit_size histogram — no groups are recorded with
// group commit off, >1 under concurrency with it on).

#include <benchmark/benchmark.h>

#include <mutex>

#include "bench_common.h"
#include "db/transaction.h"

namespace tcob {
namespace bench {
namespace {

struct TxnBenchDb {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<Database> db;
};

/// One database per group-commit setting, shared by all writer threads
/// and reused across thread counts (transactions only insert, so the
/// workload never depends on prior state).
TxnBenchDb* GetTxnDb(bool group_commit) {
  static std::mutex mu;
  static TxnBenchDb* dbs[2] = {nullptr, nullptr};
  std::lock_guard<std::mutex> lock(mu);
  TxnBenchDb*& slot = dbs[group_commit ? 1 : 0];
  if (slot == nullptr) {
    slot = new TxnBenchDb();
    slot->dir = std::make_unique<TempDir>();
    DatabaseOptions options;
    options.strategy = StorageStrategy::kSeparated;
    options.sync_wal = true;  // a commit ack must mean durable
    options.group_commit = group_commit;
    auto db = Database::Open(slot->dir->path() + "/db", options);
    BenchCheck(db.status(), "open txn database");
    slot->db = std::move(db.value());
    BenchCheck(
        slot->db->CreateAtomType("Item", {{"v", AttrType::kInt}}).status(),
        "create Item");
  }
  return slot;
}

void BM_CommitThroughput(benchmark::State& state) {
  const bool group_commit = state.range(0) != 0;
  const bool autocommit = state.range(1) != 0;
  Database* db = GetTxnDb(group_commit)->db.get();
  // The database is shared across runs: report this run's deltas. All
  // threads meet at a barrier at both ends of the timed loop.
  tcob::MetricsSnapshot before;
  if (state.thread_index() == 0) before = db->MetricsSnapshot();

  int64_t v = 0;
  for (auto _ : state) {
    if (autocommit) {
      auto id = db->InsertAtom("Item", {{"v", Value::Int(++v)}}, db->Now());
      BenchCheck(id.status(), "auto-commit insert");
      continue;
    }
    Transaction txn = db->Begin();
    auto id = txn.InsertAtom("Item", {{"v", Value::Int(++v)}}, db->Now());
    BenchCheck(id.status(), "buffer insert");
    BenchCheck(txn.Commit(), "commit");
  }
  state.SetItemsProcessed(state.iterations());

  if (state.thread_index() == 0) {
    tcob::MetricsSnapshot after = db->MetricsSnapshot();
    state.counters["wal_fsyncs"] = static_cast<double>(
        after.CounterOr("tcob_wal_syncs_total", 0) -
        before.CounterOr("tcob_wal_syncs_total", 0));
    auto a = after.histograms.find("tcob_wal_group_commit_size");
    auto b = before.histograms.find("tcob_wal_group_commit_size");
    if (a != after.histograms.end() && b != before.histograms.end() &&
        a->second.count > b->second.count) {
      state.counters["group_size_mean"] =
          static_cast<double>(a->second.sum - b->second.sum) /
          static_cast<double>(a->second.count - b->second.count);
    }
    state.SetLabel(std::string(group_commit ? "group-commit"
                                            : "per-commit-fsync") +
                   (autocommit ? "/auto-commit" : "/txn"));
  }
}

BENCHMARK(BM_CommitThroughput)
    ->ArgNames({"group_commit", "autocommit"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->Iterations(200)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace tcob

TCOB_BENCH_MAIN();
