#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/temp_dir.h"
#include "db/database.h"
#include "db/transaction.h"
#include "query/parser.h"
#include "storage/fault_env.h"

namespace tcob {
namespace {

class VacuumTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.strategy = GetParam();
    auto db = Database::Open(dir_.path() + "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    Run("CREATE ATOM_TYPE Dept (name STRING, budget INT)");
    Run("CREATE ATOM_TYPE Emp (name STRING, salary INT)");
    Run("CREATE LINK DeptEmp FROM Dept TO Emp");
    Run("CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD)");
  }

  ResultSet Run(const std::string& mql) {
    auto r = db_->Execute(mql);
    EXPECT_TRUE(r.ok()) << mql << ": " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultSet{};
  }

  /// One dept with an emp updated at t = 10, 20, ..., 100.
  void PopulateHistory() {
    dept_ = Run("INSERT ATOM Dept (name='R&D', budget=1) VALID FROM 10")
                .inserted_id;
    emp_ = Run("INSERT ATOM Emp (name='ada', salary=10) VALID FROM 10")
               .inserted_id;
    Run("CONNECT DeptEmp FROM " + std::to_string(dept_) + " TO " +
        std::to_string(emp_) + " VALID FROM 10");
    for (Timestamp t = 20; t <= 100; t += 10) {
      Run("UPDATE ATOM Emp " + std::to_string(emp_) + " SET salary=" +
          std::to_string(t) + " VALID FROM " + std::to_string(t));
    }
    db_->SetNow(150);
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  AtomId dept_ = kInvalidAtomId;
  AtomId emp_ = kInvalidAtomId;
};

TEST_P(VacuumTest, RemovesOnlyPreCutoffVersions) {
  PopulateHistory();
  const AtomTypeDef* emp_type = db_->catalog().GetAtomTypeByName("Emp").value();
  ASSERT_EQ(db_->store()->GetVersions(*emp_type, emp_, Interval::All())
                .value()
                .size(),
            10u);
  // Versions: [10,20) ... [90,100), [100,inf). Cutoff 50 removes the
  // four versions ending at 20, 30, 40, 50.
  auto removed = db_->VacuumBefore(50);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), 4u);
  auto versions =
      db_->store()->GetVersions(*emp_type, emp_, Interval::All()).value();
  ASSERT_EQ(versions.size(), 6u);
  EXPECT_EQ(versions.front().valid, Interval(50, 60));
  EXPECT_EQ(versions.back().valid, Interval(100, kForever));
  // Queries after the cutoff are intact.
  EXPECT_EQ(Run("SELECT Emp.salary FROM DeptMol VALID AT 75").rows[0][1]
                .AsInt(),
            70);
  EXPECT_EQ(Run("SELECT ALL FROM DeptMol VALID AT NOW").RowCount(), 2u);
  // Queries before the cutoff now find no employee version.
  EXPECT_EQ(Run("SELECT Emp.salary FROM DeptMol VALID AT 25").RowCount(),
            0u);
}

TEST_P(VacuumTest, MqlVacuumStatement) {
  PopulateHistory();
  ResultSet r = Run("VACUUM BEFORE 50");
  EXPECT_NE(r.message.find("vacuumed 4"), std::string::npos) << r.message;
  // Idempotent: nothing more to remove.
  r = Run("VACUUM BEFORE 50");
  EXPECT_NE(r.message.find("vacuumed 0"), std::string::npos) << r.message;
}

TEST_P(VacuumTest, FullyDeadAtomsDisappear) {
  PopulateHistory();
  AtomId doomed =
      Run("INSERT ATOM Emp (name='gone', salary=1) VALID FROM 10")
          .inserted_id;
  Run("DELETE ATOM Emp " + std::to_string(doomed) + " VALID FROM 30");
  ASSERT_TRUE(db_->VacuumBefore(40).ok());
  const AtomTypeDef* emp_type = db_->catalog().GetAtomTypeByName("Emp").value();
  auto versions = db_->store()->GetVersions(*emp_type, doomed, Interval::All());
  // Either the atom is entirely forgotten or it reports no versions.
  if (versions.ok()) {
    EXPECT_TRUE(versions.value().empty());
  } else {
    EXPECT_TRUE(versions.status().IsNotFound());
  }
  // Surviving atoms unaffected.
  EXPECT_EQ(Run("SELECT ALL FROM DeptMol VALID AT NOW").RowCount(), 2u);
}

TEST_P(VacuumTest, LinksAndIndexesVacuumedToo) {
  PopulateHistory();
  // A link that ended long ago.
  AtomId temp =
      Run("INSERT ATOM Emp (name='temp', salary=1) VALID FROM 10")
          .inserted_id;
  Run("CONNECT DeptEmp FROM " + std::to_string(dept_) + " TO " +
      std::to_string(temp) + " VALID FROM 10");
  Run("DISCONNECT DeptEmp FROM " + std::to_string(dept_) + " TO " +
      std::to_string(temp) + " VALID FROM 30");
  Run("DELETE ATOM Emp " + std::to_string(temp) + " VALID FROM 30");
  // And an attribute index over the employee salary history.
  Run("CREATE INDEX idx_salary ON Emp (salary)");

  ASSERT_TRUE(db_->VacuumBefore(50).ok());

  // The dead link interval is gone: even a pre-cutoff slice shows no
  // connection (its data was vacuumed).
  const LinkTypeDef* link = db_->catalog().GetLinkTypeByName("DeptEmp").value();
  auto spans =
      db_->links()->NeighborsIn(*link, dept_, true, Interval::All()).value();
  ASSERT_EQ(spans.size(), 1u);  // only the living emp's link remains
  EXPECT_EQ(spans[0].first, emp_);

  // Index entries for vacuumed versions are gone; surviving ones work.
  const AttrIndexDef* idx =
      db_->catalog().GetAttrIndexByName("idx_salary").value();
  ValueRange all;
  auto pre = db_->attr_indexes()->LookupAsOf(*idx, all, 25).value();
  EXPECT_TRUE(pre.empty());
  auto post = db_->attr_indexes()->LookupAsOf(*idx, all, 75).value();
  EXPECT_EQ(post.size(), 1u);
}

TEST_P(VacuumTest, ReclaimsSpace) {
  PopulateHistory();
  // Blow the history up a bit to make the space delta visible.
  for (Timestamp t = 110; t <= 400; t += 1) {
    Run("UPDATE ATOM Emp " + std::to_string(emp_) + " SET salary=" +
        std::to_string(t) + " VALID FROM " + std::to_string(t));
  }
  auto before = db_->store()->SpaceStats().value();
  ASSERT_TRUE(db_->VacuumBefore(395).ok());
  auto after = db_->store()->SpaceStats().value();
  // Heap files never shrink (freed space is reused), but live version
  // count must have dropped dramatically.
  const AtomTypeDef* emp_type = db_->catalog().GetAtomTypeByName("Emp").value();
  auto versions =
      db_->store()->GetVersions(*emp_type, emp_, Interval::All()).value();
  EXPECT_LE(versions.size(), 7u);
  EXPECT_LE(after.heap_pages, before.heap_pages);
}

TEST_P(VacuumTest, DatabaseUsableAfterVacuumAndReopen) {
  PopulateHistory();
  ASSERT_TRUE(db_->VacuumBefore(50).ok());
  // Continue writing after the vacuum.
  Run("UPDATE ATOM Emp " + std::to_string(emp_) +
      " SET salary=999 VALID FROM 200");
  DatabaseOptions options;
  options.strategy = GetParam();
  db_.reset();
  db_ = Database::Open(dir_.path() + "/db", options).value();
  EXPECT_EQ(Run("SELECT Emp.salary FROM DeptMol VALID AT 250").rows[0][1]
                .AsInt(),
            999);
  const AtomTypeDef* emp_type = db_->catalog().GetAtomTypeByName("Emp").value();
  EXPECT_EQ(db_->store()->GetVersions(*emp_type, emp_, Interval::All())
                .value()
                .size(),
            7u);
}

TEST_P(VacuumTest, RefusedBelowAnOpenTransactionsSnapshot) {
  // The shrunk trace of fuzz_sim seed 1143: a vacuum must not remove a
  // version an open transaction's snapshot still reads.
  const AtomId emp =
      Run("INSERT ATOM Emp (name='ada', salary=1) VALID FROM 22").inserted_id;
  Transaction txn = db_->Begin();
  ASSERT_EQ(txn.snapshot(), 22);
  Run("UPDATE ATOM Emp " + std::to_string(emp) +
      " SET salary=2 VALID FROM 56");
  // A cutoff at the snapshot instant removes nothing it reads.
  ASSERT_TRUE(db_->VacuumBefore(22).ok());
  auto refused = db_->VacuumBefore(61);
  ASSERT_TRUE(refused.status().IsFailedPrecondition())
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("transaction " +
                                            std::to_string(txn.id())),
            std::string::npos)
      << refused.status().ToString();
  // The version [22, 56) survived, so the update buffers against it and
  // loses to the auto-committed update at COMMIT.
  ASSERT_TRUE(txn.UpdateAtom("Emp", emp, {{"salary", Value::Int(3)}}, 75)
                  .ok());
  EXPECT_TRUE(txn.Commit().IsTxnConflict());
  // Once the transaction has ended the vacuum runs.
  auto removed = db_->VacuumBefore(61);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, VacuumTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

TEST(ReorganizationTest, ValidationNeverSeesAHalfReorganizedStore) {
  // Transaction validation reads the stores beside other writers, and
  // page contents carry no latch. Vacuum and migration rewrite pages
  // just as a commit's apply does, so they must hold validation off the
  // same way. One thread validates updates of live atoms while the main
  // thread keeps updating, migrating and vacuuming; every update must
  // validate.
  FaultInjectingIoEnv env;  // in memory: the many checkpoints stay cheap
  DatabaseOptions options;
  options.strategy = StorageStrategy::kSnapshot;
  options.env = &env;
  options.parallelism = 1;
  options.tiering.enabled = true;
  options.tiering.cold_age = 20;
  auto opened = Database::Open("db", options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database* db = opened.value().get();
  ASSERT_TRUE(
      db->Execute("CREATE ATOM_TYPE Emp (name STRING, salary INT)").ok());
  std::vector<AtomId> ids;
  for (int i = 0; i < 16; ++i) {
    auto id = db->InsertAtom("Emp", {{"salary", Value::Int(i)}}, 10);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> validated{0};
  std::atomic<uint64_t> refused{0};
  std::string first_refusal;  // written by the validator before join
  std::thread validator([&] {
    for (size_t i = 0; !stop.load(); ++i) {
      Transaction txn = db->Begin();
      Status s = txn.UpdateAtom("Emp", ids[i % ids.size()],
                                {{"salary", Value::Int(-1)}}, 1000000);
      if (s.ok()) {
        validated.fetch_add(1);
      } else if (refused.fetch_add(1) == 0) {
        first_refusal = s.ToString();
      }
      txn.Abort();
    }
  });
  Status failure;
  for (Timestamp t = 20; t <= 2000 && failure.ok(); t += 10) {
    for (AtomId id : ids) {
      failure = db->UpdateAtom("Emp", id, {{"salary", Value::Int(t)}}, t);
      if (!failure.ok()) break;
    }
    if (failure.ok()) failure = db->TierMigrate().status();
    if (failure.ok()) {
      // Refused only while a validator snapshot is still below the
      // cutoff, which a stalled thread can cause; that vacuum just
      // waits for the next round.
      Status vacuumed = db->VacuumBefore(t - 40).status();
      if (!vacuumed.IsFailedPrecondition()) failure = vacuumed;
    }
  }
  stop.store(true);
  validator.join();
  ASSERT_TRUE(failure.ok()) << failure.ToString();
  EXPECT_EQ(refused.load(), 0u)
      << "of " << validated.load() + refused.load()
      << " validations, first: " << first_refusal;
  EXPECT_GT(validated.load(), 0u);
}

}  // namespace
}  // namespace tcob
