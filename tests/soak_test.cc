// Soak: 10k SELECTs against one small company database — streamed,
// drained through Execute, and through a pipeline breaker — must reach a
// steady state at parallelism 1 and 4. After warm-up no statement may
// leave anything behind: the live thread count and the flight
// recorder's ring count stay constant, resident memory stays within a
// fixed bound, and latency does not drift.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/temp_dir.h"
#include "db/database.h"
#include "workload/company.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// ASan's quarantine and TSan's shadow memory grow with allocation churn
// alone, so resident memory says nothing about leaks under them.
constexpr bool kRssMeaningful = false;
#else
constexpr bool kRssMeaningful = true;
#endif

namespace tcob {
namespace {

size_t LiveThreads() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

uint64_t ResidentKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  int fields = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (fields != 2) return 0;
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Runs one statement through the surface `i` selects; returns its rows.
size_t RunOne(Database* db, size_t i) {
  switch (i % 3) {
    case 0: {  // streamed, pulled row by row
      auto cursor = db->Query("SELECT ALL FROM DeptMol VALID AT NOW");
      EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
      if (!cursor.ok()) return 0;
      std::vector<Value> row;
      size_t rows = 0;
      for (;;) {
        Result<bool> more = cursor.value()->Next(&row);
        EXPECT_TRUE(more.ok()) << more.status().ToString();
        if (!more.ok() || !more.value()) break;
        ++rows;
      }
      return rows;
    }
    case 1: {  // the materialized surface (drains a cursor internally)
      auto result = db->Execute("SELECT Emp.name FROM DeptMol HISTORY");
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      return result.ok() ? result.value().RowCount() : 0;
    }
    default: {  // a pipeline breaker, executed eagerly at open
      auto result = db->Execute(
          "SELECT COUNT(*) FROM DeptMol GROUP BY ROOT VALID AT NOW");
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      return result.ok() ? result.value().RowCount() : 0;
    }
  }
}

class SoakTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SoakTest, TenThousandSelectsReachSteadyState) {
  TempDir dir;
  DatabaseOptions options;
  options.strategy = StorageStrategy::kSeparated;
  options.parallelism = GetParam();
  auto db = Database::Open(dir.path() + "/db", options).value();
  CompanyConfig config;
  config.depts = 2;
  config.emps_per_dept = 2;
  config.projs_per_emp = 1;
  config.versions_per_atom = 2;
  ASSERT_TRUE(BuildCompany(db.get(), config).ok());

  constexpr size_t kStatements = 10000;
  constexpr size_t kWarmup = 1000;
  constexpr uint64_t kRssBoundKb = 8 * 1024;
  std::vector<double> latency_us;
  latency_us.reserve(kStatements);
  int64_t rings = 0;
  size_t threads = 0;
  uint64_t rss_kb = 0;
  for (size_t i = 0; i < kStatements; ++i) {
    StopwatchUs timer;
    ASSERT_GT(RunOne(db.get(), i), 0u) << "statement " << i;
    latency_us.push_back(timer.ElapsedUs());
    if (i + 1 == kWarmup) {
      rings = db->MetricsSnapshot().GaugeOr("tcob_trace_rings", -1);
      threads = LiveThreads();
      rss_kb = ResidentKb();
    }
  }

  EXPECT_GT(rings, 0);
  EXPECT_EQ(db->MetricsSnapshot().GaugeOr("tcob_trace_rings", -1), rings);
  EXPECT_EQ(LiveThreads(), threads);
  if (kRssMeaningful) {
    const uint64_t now_kb = ResidentKb();
    EXPECT_LT(now_kb, rss_kb + kRssBoundKb)
        << "resident memory grew from " << rss_kb << " KiB to " << now_kb
        << " KiB over " << kStatements - kWarmup << " statements";
  }
  const double first = Median(std::vector<double>(
      latency_us.begin(), latency_us.begin() + kWarmup));
  const double last = Median(
      std::vector<double>(latency_us.end() - kWarmup, latency_us.end()));
  EXPECT_LE(last, 2 * first) << "median latency drifted from " << first
                             << " us to " << last << " us";
}

INSTANTIATE_TEST_SUITE_P(Parallelism, SoakTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "p" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tcob
