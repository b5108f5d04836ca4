// The one write path: every DML statement — API or MQL, auto-commit or
// inside a transaction, or ImportDump — commits as a transaction that is
// validated, logged, made durable, and only then applied.
//
//   - a refused statement writes no WAL record, so a power cut right
//     after it cannot make the database unopenable,
//   - an update stamped at the live version's begin is refused on every
//     surface instead of being acknowledged and dropped as a replay,
//   - a COMMIT whose group fsync fails is never applied: the read-only
//     instance serves what a healthy replica serves, and the failed
//     commit stays absent after recovery,
//   - an auto-commit write is one self-committed record and never
//     reports TxnConflict,
//   - ImportDump refuses a dump with out-of-order histories before it
//     changes the target.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/logging.h"
#include "common/temp_dir.h"
#include "db/database.h"
#include "db/dump.h"
#include "storage/fault_env.h"
#include "tstore/temporal_store.h"

namespace tcob {
namespace {

constexpr char kSetup[] = R"(
  CREATE ATOM_TYPE Dept (name STRING, budget INT);
  CREATE ATOM_TYPE Emp (name STRING, salary INT);
  CREATE LINK DeptEmp FROM Dept TO Emp;
  CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD);
  INSERT ATOM Dept (name='eng', budget=100) VALID FROM 10;
  INSERT ATOM Emp (name='ada', salary=10) VALID FROM 10;
  INSERT ATOM Emp (name='bob', salary=11) VALID FROM 10;
  CONNECT DeptEmp FROM 1 TO 2 VALID FROM 10;
)";

/// Renders a materialized result for byte-exact comparison.
std::string Render(const ResultSet& rs) {
  std::string out;
  for (const std::string& c : rs.columns) out += c + "|";
  out += "\n";
  for (const auto& row : rs.rows) {
    for (const Value& v : row) out += v.ToString() + "|";
    out += "\n";
  }
  return out + rs.message;
}

class WritePathTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  void SetUp() override {
    saved_level_ = GetLogLevel();
    SetLogLevel(LogLevel::kSilent);  // several tests provoke errors
  }
  void TearDown() override { SetLogLevel(saved_level_); }

  DatabaseOptions Options(IoEnv* env) {
    DatabaseOptions options;
    options.strategy = GetParam();
    options.buffer_pool_pages = 16;
    options.sync_wal = true;
    options.parallelism = 1;
    options.env = env;
    return options;
  }

  std::unique_ptr<Database> Populate(const std::string& sub, IoEnv* env) {
    auto db = Database::Open(dir_.path() + "/" + sub, Options(env));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return nullptr;
    auto r = (*db)->ExecuteScript(kSetup);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(db.value()) : nullptr;
  }

  static size_t Rows(Database* db, const std::string& q) {
    auto r = db->Execute(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? r.value().RowCount() : 0;
  }

  TempDir dir_;
  LogLevel saved_level_ = LogLevel::kInfo;
};

TEST_P(WritePathTest, RefusedStatementsLeaveNothingToReplay) {
  FaultInjectingIoEnv env;
  auto db = Populate("db", &env);
  ASSERT_NE(db, nullptr);
  auto before = db->Dump();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const uint64_t records = db->wal()->appended_records();

  auto unknown = db->Execute("DELETE ATOM Emp 42 VALID FROM 20");
  EXPECT_TRUE(unknown.status().IsNotFound()) << unknown.status().ToString();
  auto unconnected =
      db->Execute("DISCONNECT DeptEmp FROM 1 TO 3 VALID FROM 20");
  EXPECT_TRUE(unconnected.status().IsNotFound())
      << unconnected.status().ToString();
  auto reconnect = db->Execute("CONNECT DeptEmp FROM 1 TO 2 VALID FROM 20");
  EXPECT_TRUE(reconnect.status().IsAlreadyExists())
      << reconnect.status().ToString();
  EXPECT_EQ(db->wal()->appended_records(), records);
  EXPECT_EQ(db->health_state(), HealthState::kHealthy);

  // Power cut at the next I/O event (the victim's close): only synced
  // bytes survive. A refused statement that had been logged and synced
  // would now be replayed — and refused again, failing every Open.
  env.PowerCutAfterEvents(env.events() + 1, CutMode::kDropUnsynced);
  db.reset();
  env.Revive();
  auto reopened = Database::Open(dir_.path() + "/db", Options(&env));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto after = (*reopened)->Dump();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value(), before.value());
}

TEST_P(WritePathTest, UpdateAtLiveVersionBeginIsRefusedOnEverySurface) {
  FaultInjectingIoEnv env;
  auto db = Populate("db", &env);
  ASSERT_NE(db, nullptr);
  // Emp 2: inserted at 10 (the setup), a second version live from 20.
  ASSERT_TRUE(db->UpdateAtom("Emp", 2, {{"salary", Value::Int(20)}}, 20).ok());
  auto before = db->Dump();
  ASSERT_TRUE(before.ok());

  Status api = db->UpdateAtom("Emp", 2, {{"salary", Value::Int(30)}}, 20);
  EXPECT_TRUE(api.IsInvalidArgument()) << api.ToString();
  auto mql = db->Execute("UPDATE ATOM Emp 2 SET salary=30 VALID FROM 20");
  EXPECT_TRUE(mql.status().IsInvalidArgument()) << mql.status().ToString();
  ASSERT_TRUE(db->Execute("BEGIN;").ok());
  auto buffered = db->Execute("UPDATE ATOM Emp 2 SET salary=30 VALID FROM 20");
  EXPECT_TRUE(buffered.status().IsInvalidArgument())
      << buffered.status().ToString();
  auto committed = db->Execute("COMMIT;");
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();

  auto after = db->Dump();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());
  EXPECT_EQ(Rows(db.get(),
                 "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 20 "
                 "VALID AT 25"),
            1u);
}

TEST_P(WritePathTest, FailedCommitFsyncIsNeverApplied) {
  FaultInjectingIoEnv victim_env;
  FaultInjectingIoEnv replica_env;
  auto victim = Populate("victim", &victim_env);
  auto replica = Populate("replica", &replica_env);
  ASSERT_NE(victim, nullptr);
  ASSERT_NE(replica, nullptr);

  ASSERT_TRUE(victim->Execute("BEGIN;").ok());
  ASSERT_TRUE(
      victim->Execute("UPDATE ATOM Emp 2 SET salary=99 VALID FROM 20").ok());
  victim_env.FailSyncAt(victim_env.syncs() + 1);
  auto failed = victim->Execute("COMMIT;");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_EQ(victim->health_state(), HealthState::kReadOnly);

  // The failed commit is invisible: the degraded victim answers the
  // read battery exactly like a healthy replica that never saw it.
  const char* const kBattery[] = {
      "SELECT ALL FROM DeptMol VALID AT 15",
      "SELECT Emp.name FROM DeptMol VALID AT 15",
      "SELECT ALL FROM DeptMol VALID IN [10, 30)",
      "SELECT Emp.salary FROM DeptMol HISTORY",
      "SELECT COUNT(*) FROM DeptMol VALID AT 15",
      "SELECT COUNT(*), AVG(Emp.salary) FROM DeptMol GROUP BY ROOT "
      "VALID AT 15",
      "SELECT Emp.name FROM DeptMol WHERE Emp.salary > 5 VALID AT 15",
      "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 10 VALID AT 15",
      "SELECT ALL FROM DeptMol HISTORY",
  };
  for (const char* q : kBattery) {
    auto got = victim->Execute(q);
    auto want = replica->Execute(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    EXPECT_EQ(Render(got.value()), Render(want.value())) << q;
  }
  EXPECT_EQ(victim->applied_op_seq(), replica->applied_op_seq());

  // Recovery checkpoints the in-memory image, which never held the
  // failed commit, and a reopen replays nothing of it either.
  ASSERT_TRUE(victim->TryRecover().ok());
  victim.reset();
  auto reopened = Database::Open(dir_.path() + "/victim", Options(&victim_env));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Rows(reopened->get(),
                 "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 99 "
                 "HISTORY"),
            0u);
  auto got = (*reopened)->Dump();
  auto want = replica->Dump();
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value(), want.value());
}

TEST_P(WritePathTest, AutoCommitIsOneSelfCommittedRecord) {
  FaultInjectingIoEnv env;
  auto db = Populate("db", &env);
  ASSERT_NE(db, nullptr);
  auto appended = [&] { return db->wal()->appended_records(); };
  uint64_t n = appended();
  for (const char* stmt :
       {"INSERT ATOM Emp (name='cy', salary=12) VALID FROM 15",
        "UPDATE ATOM Emp 3 SET salary=13 VALID FROM 16",
        "CONNECT DeptEmp FROM 1 TO 3 VALID FROM 16",
        "DISCONNECT DeptEmp FROM 1 TO 3 VALID FROM 17",
        "DELETE ATOM Emp 3 VALID FROM 18"}) {
    ASSERT_TRUE(db->Execute(stmt).ok()) << stmt;
    EXPECT_EQ(appended(), n + 1) << stmt;
    n = appended();
  }
  // A one-op transaction is the same record; two ops are two records
  // plus the commit record.
  Transaction one = db->Begin();
  ASSERT_TRUE(one.UpdateAtom("Emp", 2, {{"salary", Value::Int(14)}}, 19).ok());
  ASSERT_TRUE(one.Commit().ok());
  EXPECT_EQ(appended(), n + 1);
  n = appended();
  Transaction two = db->Begin();
  ASSERT_TRUE(two.UpdateAtom("Emp", 2, {{"salary", Value::Int(15)}}, 21).ok());
  ASSERT_TRUE(two.UpdateAtom("Emp", 2, {{"salary", Value::Int(16)}}, 22).ok());
  ASSERT_TRUE(two.Commit().ok());
  EXPECT_EQ(appended(), n + 3);
  // Both formats replay.
  auto before = db->Dump();
  ASSERT_TRUE(before.ok());
  const uint64_t seq = db->applied_op_seq();
  (void)db.release();  // crash: recovery must rebuild from the WAL alone
  auto reopened = Database::Open(dir_.path() + "/db", Options(&env));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->applied_op_seq(), seq);
  auto after = (*reopened)->Dump();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());
}

TEST_P(WritePathTest, ConcurrentAutoCommitsNeverReportConflicts) {
  TempDir dir;
  DatabaseOptions options;
  options.strategy = GetParam();
  options.parallelism = 1;
  auto db = Database::Open(dir.path() + "/db", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->ExecuteScript(kSetup).ok());
  constexpr int kThreads = 4;
  constexpr int kUpdates = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kUpdates; ++i) {
        // Every thread rewrites the same atom: first-committer-wins
        // losers re-run inside UpdateAtom instead of surfacing.
        Status s = (*db)->UpdateAtom(
            "Emp", 2, {{"salary", Value::Int(t * 100 + i)}}, (*db)->Now(),
            /*from_now=*/true);
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto emp = (*db)->catalog().GetAtomTypeByName("Emp");
  ASSERT_TRUE(emp.ok());
  auto versions =
      (*db)->store()->GetVersions(*emp.value(), 2, Interval::All());
  ASSERT_TRUE(versions.ok()) << versions.status().ToString();
  EXPECT_EQ(versions.value().size(), 1u + kThreads * kUpdates);
  EXPECT_EQ((*db)->ActiveTxns(), 0u);
}

// Validation must refuse everything the stores would refuse at apply,
// or the write is logged and then fails the instance. Two cases where
// a snapshot read alone misleads validation.
TEST_P(WritePathTest, ValidationMatchesWhatTheStoresAccept) {
  FaultInjectingIoEnv env;
  auto db = Populate("db", &env);
  ASSERT_NE(db, nullptr);
  // A surrogate inserted as an Emp is unknown to the Dept store, even
  // inside the transaction that inserted it.
  Transaction txn = db->Begin();
  auto emp = txn.InsertAtom("Emp", {{"name", Value::String("cy")}}, 20);
  ASSERT_TRUE(emp.ok()) << emp.status().ToString();
  Status cross = txn.DeleteAtom("Dept", emp.value(), 21);
  EXPECT_TRUE(cross.IsNotFound()) << cross.ToString();
  ASSERT_TRUE(txn.Commit().ok());

  // NOW never moves back below committed history: a snapshot pinned
  // there would not see the version that begins at 100, and an update
  // at 60 would pass validation only to be refused at apply.
  ASSERT_TRUE(db->UpdateAtom("Emp", 3, {{"salary", Value::Int(12)}}, 100).ok());
  const Timestamp now = db->Now();
  db->SetNow(50);
  EXPECT_EQ(db->Now(), now);
  Status retro = db->UpdateAtom("Emp", 3, {{"salary", Value::Int(13)}}, 60);
  EXPECT_TRUE(retro.IsInvalidArgument()) << retro.ToString();
  EXPECT_EQ(db->health_state(), HealthState::kHealthy);
  db.reset();
  auto reopened = Database::Open(dir_.path() + "/db", Options(&env));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
}

TEST_P(WritePathTest, ImportRefusesOverlappingHistoryBeforeWriting) {
  TempDir dir;
  DatabaseOptions options;
  options.strategy = GetParam();
  auto source = Database::Open(dir.path() + "/source", options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_TRUE((*source)->ExecuteScript(kSetup).ok());
  // A hand-made dump whose Emp 2 has two versions overlapping in [15, 20).
  auto emp = (*source)->catalog().GetAtomTypeByName("Emp");
  ASSERT_TRUE(emp.ok());
  std::string bytes;
  PutFixed32(&bytes, 0x54434244);  // dump magic
  PutFixed32(&bytes, 1);           // dump version
  PutLengthPrefixed(&bytes, (*source)->catalog().Serialize());
  PutVarsint64(&bytes, 100);
  PutVarint32(&bytes, 1);
  PutVarint32(&bytes, emp.value()->id);
  PutVarint64(&bytes, 2);
  const std::vector<AttrType> schema = emp.value()->AttrTypes();
  for (const Interval& valid : {Interval(10, 20), Interval(15, kForever)}) {
    AtomVersion v{2, emp.value()->id, 1, valid,
                  {Value::String("ada"), Value::Int(10)}};
    ASSERT_TRUE(EncodeAtomVersion(schema, v, &bytes).ok());
  }
  PutVarint32(&bytes, 0);  // no link types
  const std::string path = dir.path() + "/bad.dump";
  std::ofstream(path, std::ios::binary) << bytes;

  auto target = Database::Open(dir.path() + "/target", options);
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  Status imported = ImportDump(target->get(), path);
  EXPECT_TRUE(imported.IsCorruption()) << imported.ToString();
  EXPECT_TRUE((*target)->catalog().AtomTypes().empty());
  EXPECT_EQ((*target)->wal()->appended_records(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, WritePathTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

}  // namespace
}  // namespace tcob
