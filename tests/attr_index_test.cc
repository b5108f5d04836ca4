#include "index/attr_index.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "db/database.h"
#include "query/parser.h"
#include "query/planner.h"
#include "workload/company.h"

namespace tcob {
namespace {

class AttrIndexTest : public ::testing::TestWithParam<StorageStrategy> {
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

  /// Ten departments, budgets 100..1000, created at t=10; budgets of the
  /// first five doubled at t=50.
  void PopulateDepts() {
    for (int i = 1; i <= 10; ++i) {
      ResultSet r = Run("INSERT ATOM Dept (name='d" + std::to_string(i) +
                        "', budget=" + std::to_string(i * 100) +
                        ") VALID FROM 10");
      depts_.push_back(r.inserted_id);
    }
    for (int i = 0; i < 5; ++i) {
      Run("UPDATE ATOM Dept " + std::to_string(depts_[i]) + " SET budget=" +
          std::to_string((i + 1) * 200) + " VALID FROM 50");
    }
    db_->SetNow(100);
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::vector<AtomId> depts_;
};

TEST_P(AttrIndexTest, DirectLookupAsOf) {
  PopulateDepts();
  ASSERT_TRUE(db_->CreateAttrIndex("idx_budget", "Dept", "budget").ok());
  const AttrIndexDef* idx =
      db_->catalog().GetAttrIndexByName("idx_budget").value();
  ValueRange range;
  range.lower = Value::Int(300);
  range.lower_inclusive = true;
  // As of t=20 (before the updates): budgets 300..1000 -> depts 3..10.
  auto before = db_->attr_indexes()->LookupAsOf(*idx, range, 20).value();
  EXPECT_EQ(before.size(), 8u);
  // As of t=60: first five now 200,400,..,1000; budgets >= 300:
  // d2(400),d3(600),d4(800),d5(1000) plus d6..d10 (600..1000) and
  // d3..d5 originals are gone -> exactly 9 atoms.
  auto after = db_->attr_indexes()->LookupAsOf(*idx, range, 60).value();
  EXPECT_EQ(after.size(), 9u);
}

TEST_P(AttrIndexTest, EqualityLookup) {
  PopulateDepts();
  ASSERT_TRUE(db_->CreateAttrIndex("idx_budget", "Dept", "budget").ok());
  const AttrIndexDef* idx =
      db_->catalog().GetAttrIndexByName("idx_budget").value();
  ValueRange eq;
  eq.lower = Value::Int(400);
  eq.upper = Value::Int(400);
  eq.lower_inclusive = eq.upper_inclusive = true;
  // t=20: only dept 4 had budget 400.
  auto hits = db_->attr_indexes()->LookupAsOf(*idx, eq, 20).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], depts_[3]);
  // t=60: dept 2 was doubled to 400; dept 4 still 400 (not in first five?
  // dept 4 IS in the first five, doubled to 800). So only dept 2.
  hits = db_->attr_indexes()->LookupAsOf(*idx, eq, 60).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], depts_[1]);
}

TEST_P(AttrIndexTest, BackfillCoversPreexistingHistory) {
  PopulateDepts();  // history exists *before* the index
  ASSERT_TRUE(db_->CreateAttrIndex("idx_budget", "Dept", "budget").ok());
  const AttrIndexDef* idx =
      db_->catalog().GetAttrIndexByName("idx_budget").value();
  ValueRange all;
  auto at_20 = db_->attr_indexes()->LookupAsOf(*idx, all, 20).value();
  EXPECT_EQ(at_20.size(), 10u);
  auto at_5 = db_->attr_indexes()->LookupAsOf(*idx, all, 5).value();
  EXPECT_EQ(at_5.size(), 0u);
}

TEST_P(AttrIndexTest, StringIndex) {
  PopulateDepts();
  ASSERT_TRUE(db_->CreateAttrIndex("idx_name", "Dept", "name").ok());
  const AttrIndexDef* idx =
      db_->catalog().GetAttrIndexByName("idx_name").value();
  ValueRange eq;
  eq.lower = Value::String("d7");
  eq.upper = Value::String("d7");
  eq.lower_inclusive = eq.upper_inclusive = true;
  auto hits = db_->attr_indexes()->LookupAsOf(*idx, eq, 20).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], depts_[6]);
  // Prefix must not bleed: "d1" != "d10".
  eq.lower = eq.upper = Value::String("d1");
  hits = db_->attr_indexes()->LookupAsOf(*idx, eq, 20).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], depts_[0]);
}

TEST_P(AttrIndexTest, IndexedQueryMatchesScanResults) {
  PopulateDepts();
  // Connect one employee per dept so molecules are non-trivial.
  for (AtomId dept : depts_) {
    ResultSet emp = Run("INSERT ATOM Emp (name='e', salary=1) VALID FROM 10");
    Run("CONNECT DeptEmp FROM " + std::to_string(dept) + " TO " +
        std::to_string(emp.inserted_id) + " VALID FROM 10");
  }
  const std::string query =
      "SELECT Dept.name, Dept.budget FROM DeptMol "
      "WHERE Dept.budget >= 500 AND Dept.budget < 900 VALID AT 60";
  ResultSet scanned = Run(query);
  ASSERT_TRUE(db_->CreateAttrIndex("idx_budget", "Dept", "budget").ok());
  ResultSet indexed = Run(query);
  ASSERT_EQ(indexed.RowCount(), scanned.RowCount());
  // The message reveals the index was used.
  EXPECT_NE(indexed.message.find("index scan"), std::string::npos)
      << indexed.message;
  // Row contents agree (order may differ; compare as multisets).
  auto fingerprint = [](const ResultSet& r) {
    std::multiset<std::string> out;
    for (const auto& row : r.rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.insert(line);
    }
    return out;
  };
  EXPECT_EQ(fingerprint(indexed), fingerprint(scanned));
}

TEST_P(AttrIndexTest, ExplainShowsAccessPath) {
  PopulateDepts();
  ResultSet before = Run(
      "EXPLAIN SELECT ALL FROM DeptMol WHERE Dept.budget = 400 VALID AT 20");
  EXPECT_NE(before.rows[0][0].AsString().find("full scan"),
            std::string::npos);
  ASSERT_TRUE(db_->CreateAttrIndex("idx_budget", "Dept", "budget").ok());
  ResultSet after = Run(
      "EXPLAIN SELECT ALL FROM DeptMol WHERE Dept.budget = 400 VALID AT 20");
  EXPECT_NE(after.rows[0][0].AsString().find("index scan"),
            std::string::npos);
  // History queries never use the index.
  ResultSet history =
      Run("EXPLAIN SELECT ALL FROM DeptMol WHERE Dept.budget = 400 HISTORY");
  EXPECT_NE(history.rows[0][0].AsString().find("full scan"),
            std::string::npos);
  // Predicates on non-root types cannot use a root index.
  ResultSet emp_pred = Run(
      "EXPLAIN SELECT ALL FROM DeptMol WHERE Emp.salary = 1 VALID AT 20");
  EXPECT_NE(emp_pred.rows[0][0].AsString().find("full scan"),
            std::string::npos);
}

TEST_P(AttrIndexTest, IndexMaintainedAcrossDeleteAndReinsert) {
  PopulateDepts();
  ASSERT_TRUE(db_->CreateAttrIndex("idx_budget", "Dept", "budget").ok());
  Run("DELETE ATOM Dept " + std::to_string(depts_[0]) + " VALID FROM 70");
  const AttrIndexDef* idx =
      db_->catalog().GetAttrIndexByName("idx_budget").value();
  ValueRange all;
  auto at_80 = db_->attr_indexes()->LookupAsOf(*idx, all, 80).value();
  EXPECT_EQ(at_80.size(), 9u);  // one dept dead
  auto at_60 = db_->attr_indexes()->LookupAsOf(*idx, all, 60).value();
  EXPECT_EQ(at_60.size(), 10u);  // still alive back then
}

TEST_P(AttrIndexTest, IndexSurvivesRecovery) {
  PopulateDepts();
  ASSERT_TRUE(db_->CreateAttrIndex("idx_budget", "Dept", "budget").ok());
  // More history after index creation, then reopen without checkpoint.
  Run("UPDATE ATOM Dept " + std::to_string(depts_[9]) +
      " SET budget=9999 VALID FROM 80");
  DatabaseOptions options;
  options.strategy = GetParam();
  db_.reset();
  db_ = Database::Open(dir_.path() + "/db", options).value();
  const AttrIndexDef* idx =
      db_->catalog().GetAttrIndexByName("idx_budget").value();
  ValueRange eq;
  eq.lower = eq.upper = Value::Int(9999);
  eq.lower_inclusive = eq.upper_inclusive = true;
  auto hits = db_->attr_indexes()->LookupAsOf(*idx, eq, 90).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], depts_[9]);
}

TEST_P(AttrIndexTest, DdlValidation) {
  EXPECT_TRUE(db_->CreateAttrIndex("i", "Nope", "x").status().IsNotFound());
  EXPECT_TRUE(db_->CreateAttrIndex("i", "Dept", "nope")
                  .status()
                  .IsInvalidArgument());
  ASSERT_TRUE(db_->CreateAttrIndex("i", "Dept", "budget").ok());
  EXPECT_TRUE(
      db_->CreateAttrIndex("i", "Dept", "name").status().IsAlreadyExists());
  EXPECT_TRUE(db_->CreateAttrIndex("i2", "Dept", "budget")
                  .status()
                  .IsAlreadyExists());
  // MQL path + SHOW CATALOG.
  Run("CREATE INDEX idx_name ON Dept (name)");
  ResultSet catalog = Run("SHOW CATALOG");
  size_t index_rows = 0;
  for (const auto& row : catalog.rows) {
    if (row[0].AsString() == "INDEX") ++index_rows;
  }
  EXPECT_EQ(index_rows, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, AttrIndexTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

/// The index work of one indexed lookup is an exact count: which node
/// pages a plan searches depends only on the trees, so repeating the
/// statement repeats the count, and EXPLAIN ANALYZE and the metrics
/// report the same numbers.
TEST(IndexWorkTest, IndexedLookupOnSeparatedStorageVisitsFixedNodes) {
  TempDir dir;
  DatabaseOptions options;
  options.strategy = StorageStrategy::kSeparated;
  auto db = Database::Open(dir.path() + "/db", options).value();
  CompanyConfig config;
  config.depts = 64;
  config.emps_per_dept = 10;
  config.dept_update_prob = 0;  // department names never change
  auto handles = BuildCompany(db.get(), config);
  ASSERT_TRUE(handles.ok()) << handles.status().ToString();
  ASSERT_TRUE(db->CreateAttrIndex("dept_name", "Dept", "name").ok());

  // One attribute-index scan of a one-leaf tree, then one current-index
  // Get per atom of the molecule: the department (a one-leaf tree) and 10
  // employees and 10 projects (two-level trees): 1 + 1 + 20 + 20 nodes.
  const std::string mql =
      "SELECT ALL FROM DeptMol WHERE Dept.name = 'dept-7' VALID AT NOW";
  for (int run = 0; run < 3; ++run) {
    const MetricsSnapshot before = db->MetricsSnapshot();
    auto rows = db->Execute(mql);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->RowCount(), 21u);
    const MetricsSnapshot after = db->MetricsSnapshot();
    const IndexStats& index = db->last_query_stats().index;
    EXPECT_EQ(index.probes, 22u);
    EXPECT_EQ(index.node_visits, 42u);
    EXPECT_EQ(after.CounterOr("tcob_index_probes_total") -
                  before.CounterOr("tcob_index_probes_total"),
              index.probes);
    EXPECT_EQ(after.CounterOr("tcob_index_node_visits_total") -
                  before.CounterOr("tcob_index_node_visits_total"),
              index.node_visits);
  }
  auto explain = db->Execute("EXPLAIN ANALYZE " + mql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  std::map<std::string, int64_t> index_rows;
  for (const auto& row : explain->rows) {
    if (row[0].AsString() == "index") {
      index_rows[row[1].AsString()] = row[2].AsInt();
    }
  }
  EXPECT_EQ(index_rows["probes"], 22);
  EXPECT_EQ(index_rows["node_visits"], 42);
}

}  // namespace
}  // namespace tcob
