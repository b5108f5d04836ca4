// The TCOB benchmark driver: builds one workload's database from a seed,
// drives it through the public Database API with closed-loop clients,
// checks every answer, and prints the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run) as one JSON object on the last
// line of stdout. See perfbench/README.md.
//
// Usage: tcob_perfbench --workload NAME --seed N --seconds S --trace 0|1
//            --work-dir DIR --artifacts-dir DIR [--git-sha SHA]
//            [--source-sha256 HASH]

#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/transaction.h"
#include "query/parser.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tcob::Database;
using tcob::MetricsSnapshot;
using tcob::Result;
using tcob::Status;
using tcob::Value;

constexpr int kSetupRepeats = 5;
constexpr int kMaxTxnAttempts = 10;
/// Report statements cross-checked against an untiered copy at set-up.
constexpr size_t kCrossCheckStatements = 8;
/// Unmeasured reads at the start of every epoch (after the pages are
/// pulled into the pool), so the first timed read finds warm code paths.
constexpr size_t kWarmupReads = 16;
/// Reader ops whose (root, instant) pairs feed the per-layer probes.
constexpr size_t kProbeInputs = 256;
constexpr double kProbeBudgetUs = 250000;
constexpr size_t kProbeMaxCalls = 4000;

// ---------------------------------------------------------------- process

double CpuUs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double ProcessCpuUs() { return CpuUs(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuUs() { return CpuUs(CLOCK_THREAD_CPUTIME_ID); }

/// A "VmXXX:  N kB" field of /proc/self/status, in KiB (0 if absent).
double ProcStatusKb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double SinceUs(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Num(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  out += tcob::JsonEscape(s);
  out += '"';
  return out;
}

// ---------------------------------------------------------------- tallies

/// Sums of the engine's own per-SELECT trace (last_query_stats()) over
/// the traced reads, plus the benchmark's span of each read.
struct QueryLayerSums {
  uint64_t reads = 0;
  double op_us = 0;
  double parse_us = 0;
  double plan_us = 0;
  double materialize_us = 0;
  double emit_us = 0;
  double aggregate_us = 0;
  double sort_us = 0;
  double execute_us = 0;

  void Add(const tcob::QueryStats& qs, double read_us) {
    ++reads;
    op_us += read_us;
    parse_us += qs.parse_us;
    plan_us += qs.plan_us;
    materialize_us += qs.materialize_us;
    emit_us += qs.emit_us;
    aggregate_us += qs.aggregate_us;
    sort_us += qs.sort_us;
    execute_us += qs.execute_us;
  }
  void Merge(const QueryLayerSums& o) {
    reads += o.reads;
    op_us += o.op_us;
    parse_us += o.parse_us;
    plan_us += o.plan_us;
    materialize_us += o.materialize_us;
    emit_us += o.emit_us;
    aggregate_us += o.aggregate_us;
    sort_us += o.sort_us;
    execute_us += o.execute_us;
  }
  /// Read span minus the engine's parse and execute spans: producer
  /// thread start, queue hand-off and cursor teardown.
  double CursorOverheadUs() const { return op_us - parse_us - execute_us; }
};

/// What one client saw; merged per phase after the clients join.
struct Tally {
  std::vector<double> read_us;
  std::vector<int> read_statement;  // Op::statement of each read_us entry
  std::vector<double> first_row_us;
  std::vector<double> write_us;
  uint64_t reads_attempted = 0;
  uint64_t reads_failed = 0;
  uint64_t writes_attempted = 0;
  uint64_t writes_failed = 0;
  uint64_t acked_updates = 0;
  uint64_t commit_attempts = 0;
  uint64_t commits_ok = 0;
  uint64_t conflicts = 0;
  double commit_us = 0;
  uint64_t commit_calls = 0;
  double autocommit_us = 0;
  uint64_t autocommit_calls = 0;
  double checkpoint_us = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_disk_writes = 0;
  /// Wall and thread CPU time of write-probe bursts, which an epoch's
  /// measured wall and CPU time leave out.
  double probe_wall_us = 0;
  double probe_cpu_us = 0;
  QueryLayerSums qs;
  std::vector<std::string> errors;

  void Error(const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
  }
  uint64_t ReadsOk() const { return reads_attempted - reads_failed; }
  uint64_t WritesOk() const { return writes_attempted - writes_failed; }

  void Merge(const Tally& o) {
    read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
    read_statement.insert(read_statement.end(), o.read_statement.begin(),
                          o.read_statement.end());
    first_row_us.insert(first_row_us.end(), o.first_row_us.begin(),
                        o.first_row_us.end());
    write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
    reads_attempted += o.reads_attempted;
    reads_failed += o.reads_failed;
    writes_attempted += o.writes_attempted;
    writes_failed += o.writes_failed;
    acked_updates += o.acked_updates;
    commit_attempts += o.commit_attempts;
    commits_ok += o.commits_ok;
    conflicts += o.conflicts;
    commit_us += o.commit_us;
    commit_calls += o.commit_calls;
    autocommit_us += o.autocommit_us;
    autocommit_calls += o.autocommit_calls;
    checkpoint_us += o.checkpoint_us;
    checkpoints += o.checkpoints;
    checkpoint_disk_writes += o.checkpoint_disk_writes;
    probe_wall_us += o.probe_wall_us;
    probe_cpu_us += o.probe_cpu_us;
    qs.Merge(o.qs);
    for (const std::string& e : o.errors) Error(e);
  }
};

/// Engine counters whose deltas over the measured phase feed the
/// per-layer counts.
const char* const kCounterNames[] = {
    "tcob_store_get_as_of_total",        "tcob_store_get_versions_total",
    "tcob_store_scan_as_of_total",       "tcob_store_scan_versions_total",
    "tcob_vcache_atom_hits_total",       "tcob_vcache_atom_misses_total",
    "tcob_vcache_link_hits_total",       "tcob_vcache_link_misses_total",
    "tcob_vcache_versions_pinned_total", "tcob_cold_segments_scanned_total",
    "tcob_cold_segments_pruned_total",   "tcob_pool_fetches_total",
    "tcob_pool_hits_total",              "tcob_pool_misses_total",
    "tcob_disk_reads_total",             "tcob_wal_appended_bytes_total",
    "tcob_wal_syncs_total",
};

struct CounterDeltas {
  std::map<std::string, double> counters;
  double group_commit_sum = 0;
  double group_commit_count = 0;

  double Get(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  void AddDelta(const MetricsSnapshot& before, const MetricsSnapshot& after) {
    for (const char* name : kCounterNames) {
      counters[name] += static_cast<double>(after.CounterOr(name) -
                                            before.CounterOr(name));
    }
    auto b = before.histograms.find("tcob_wal_group_commit_size");
    auto a = after.histograms.find("tcob_wal_group_commit_size");
    if (a != after.histograms.end() && b != before.histograms.end()) {
      group_commit_sum += static_cast<double>(a->second.sum - b->second.sum);
      group_commit_count +=
          static_cast<double>(a->second.count - b->second.count);
    }
  }
};

/// The measured epochs of one kind (traced or untraced).
struct Phase {
  Tally tally;
  double wall_us = 0;
  double cpu_us = 0;
  uint64_t epochs = 0;
  CounterDeltas deltas;
  /// Per-epoch latency samples, for the windowed summaries.
  std::vector<std::vector<double>> read_us;
  std::vector<std::vector<double>> first_row_us;
  std::vector<std::vector<double>> write_us;
  std::vector<double> rss_kb_per_kop;
  /// Of complete epochs: throughput and CPU per op (the run reports the
  /// better quartile, like the latency windows), RSS at the end of the
  /// measured phase (the engine's per-instance memory peaks there and is
  /// freed at close), and bytes on disk after the closing checkpoint.
  std::vector<double> epoch_ops_per_s;
  std::vector<double> epoch_cpu_us_per_op;
  std::vector<double> rss_end_kb;
  std::vector<double> db_bytes;
};

/// Samples per latency window (SummarizeWindows), short so a run has
/// many; and per tail window, the 1000 that leave ten beyond a p99.
constexpr size_t kWindow = 200;
constexpr size_t kTailSamples = 1000;

WindowedLatency SummarizeRun(const std::vector<std::vector<double>>& epochs) {
  return SummarizeWindows(epochs, kWindow, kTailSamples);
}

// ---------------------------------------------------------------- run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string artifacts_dir;
  std::string git_sha = "unknown";
  std::string source_sha256 = "unknown";
};

class Bench {
 public:
  Bench(const WorkloadConfig& w, const Args& args)
      : w_(w), args_(args), origin_(Clock::now()) {}

  /// Runs the whole benchmark and prints the result; returns the exit
  /// code (0 unless the harness itself could not run).
  int Run();

 private:
  Status Setup();
  Status BuildDatabase(const std::string& dir,
                       const tcob::DatabaseOptions& options,
                       double* seconds);
  Status CrossCheckUntiered();
  /// Opens a fresh copy of the set-up database in `dir`.
  Result<std::unique_ptr<Database>> OpenCopy(const std::string& dir);
  Status Warm(Database* db);
  Status RunEpoch(double budget_us, bool traced, Phase* phase);
  /// `probe_db` is null except on read-only workloads.
  void ReaderLoop(Database* db, Database* probe_db,
                  Clock::time_point deadline, SpanLane* lane, Tally* t,
                  Tally* probe, bool* complete);
  void ProbeBurst(Database* probe_db, Tally* probe);
  void WriterLoop(Database* db, size_t index, Clock::time_point deadline,
                  SpanLane* lane, Tally* t);
  /// A null `lane` is an untraced op: no spans and no per-layer stats.
  bool RunRead(Database* db, const Op& op, SpanLane* lane, Tally* t);
  bool RunWrite(Database* db, const Op& op, SpanLane* lane, Tally* t);
  Status Checkpoint(Database* db, SpanLane* lane, Tally* t);
  Result<uint64_t> CountEmpVersions(Database* db) const;
  Status CheckWrites(Database* db, uint64_t versions_before,
                     uint64_t acked_updates);
  Status LayerProbes(std::map<std::string, double>* out);

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      std::lock_guard<std::mutex> lock(check_mu_);
      if (check_errors_.size() < 8) check_errors_.push_back(what);
    }
  }
  SpanLane* NewLane(const std::string& name) {
    lanes_.push_back(std::make_unique<SpanLane>(name, origin_));
    return lanes_.back().get();
  }
  uint64_t NextOpId() { return next_op_.fetch_add(1) + 1; }

  std::string MetadataJson() const;
  std::string ByStatementJson(const Tally& t) const;
  std::string EndToEndJson(const Phase& p) const;
  std::string PerLayerJson(const Phase& traced, const Phase& untraced,
                           const std::map<std::string, double>& probes) const;
  Status WriteArtifacts(const Phase& traced) const;

  const WorkloadConfig& w_;
  const Args args_;
  const Clock::time_point origin_;
  std::string template_dir_;
  std::string epoch_dir_;
  std::string probe_dir_;
  CompanyHandles handles_;
  std::vector<double> setup_s_;

  std::unique_ptr<OpStream> reader_;
  std::vector<std::unique_ptr<OpStream>> writers_;
  std::unique_ptr<OpStream> probe_stream_;
  /// The write probes of a read-only workload.
  Tally probe_;
  /// Row count of each distinct report statement: every repetition
  /// must return the same count.
  std::map<std::string, uint64_t> expected_rows_;
  std::atomic<uint64_t> committed_writes_{0};
  std::atomic<size_t> writers_done_{0};
  std::atomic<uint64_t> next_op_{0};
  bool flight_recorder_dumped_ = false;

  std::mutex check_mu_;
  std::vector<std::string> check_errors_;
  std::vector<std::unique_ptr<SpanLane>> lanes_;
};

Status Bench::BuildDatabase(const std::string& dir,
                            const tcob::DatabaseOptions& options,
                            double* seconds) {
  fs::remove_all(dir);
  const Clock::time_point t0 = Clock::now();
  TCOB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                        Database::Open(dir, options));
  TCOB_ASSIGN_OR_RETURN(handles_, LoadCompany(db.get(), w_.shape, args_.seed));
  if (w_.name_index) {
    TCOB_RETURN_NOT_OK(
        db->CreateAttrIndex("dept_name", "Dept", "name").status());
  }
  if (options.tiering.enabled) {
    TCOB_ASSIGN_OR_RETURN(uint64_t migrated, db->TierMigrate());
    if (migrated == 0) return Status::Internal("TierMigrate moved nothing");
  }
  TCOB_RETURN_NOT_OK(db->Checkpoint());
  if (seconds != nullptr) *seconds = SinceUs(t0) / 1e6;
  return Status::OK();
}

Status Bench::Setup() {
  fs::create_directories(args_.work_dir);
  // Set-up is a bulk load: no WAL fsync per loaded op whatever the
  // workload's flush policy, which applies to its measured writes.
  tcob::DatabaseOptions load = w_.options;
  load.sync_wal = false;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string dir =
        args_.work_dir + "/setup-" + std::to_string(i);
    double s = 0;
    TCOB_RETURN_NOT_OK(BuildDatabase(dir, load, &s));
    setup_s_.push_back(s);
    if (!template_dir_.empty()) fs::remove_all(template_dir_);
    template_dir_ = dir;
  }
  epoch_dir_ = args_.work_dir + "/epoch";
  probe_dir_ = args_.work_dir + "/probe";
  if (w_.options.tiering.enabled) TCOB_RETURN_NOT_OK(CrossCheckUntiered());
  return Status::OK();
}

/// Runs the first distinct report statements on the tiered set-up
/// database and on an untiered build of the same data: the results must
/// be identical, and their row counts seed the per-statement check.
Status Bench::CrossCheckUntiered() {
  tcob::DatabaseOptions plain = w_.options;
  plain.tiering.enabled = false;
  const std::string plain_dir = args_.work_dir + "/untiered";
  TCOB_RETURN_NOT_OK(BuildDatabase(plain_dir, plain, nullptr));
  TCOB_ASSIGN_OR_RETURN(std::unique_ptr<Database> tiered,
                        OpenCopy(epoch_dir_));
  TCOB_ASSIGN_OR_RETURN(std::unique_ptr<Database> untiered,
                        Database::Open(plain_dir, plain));
  OpStream stream(w_, args_.seed, StreamRole::kReader, 0);
  for (size_t i = 0; expected_rows_.size() < kCrossCheckStatements && i < 1000;
       ++i) {
    const Op op = stream.Next();
    if (expected_rows_.count(op.mql)) continue;
    TCOB_ASSIGN_OR_RETURN(tcob::ResultSet a, tiered->Execute(op.mql));
    TCOB_ASSIGN_OR_RETURN(tcob::ResultSet b, untiered->Execute(op.mql));
    const bool same = a.columns == b.columns && a.rows == b.rows;
    Check(same && !a.rows.empty(),
          "tiered and untiered results differ (or are empty) for: " + op.mql);
    expected_rows_[op.mql] = a.rows.size();
  }
  tiered.reset();
  untiered.reset();
  fs::remove_all(plain_dir);
  return Status::OK();
}

Result<std::unique_ptr<Database>> Bench::OpenCopy(const std::string& dir) {
  fs::remove_all(dir);
  fs::copy(template_dir_, dir, fs::copy_options::recursive);
  return Database::Open(dir, w_.options);
}

using PageRef = std::pair<tcob::FileId, tcob::PageNo>;

/// Every page of every file the database's disk manager holds.
Result<std::vector<PageRef>> AllPages(Database* db) {
  tcob::DiskManager* disk = db->disk();
  std::vector<PageRef> pages;
  for (const std::string& name : disk->FileNames()) {
    TCOB_ASSIGN_OR_RETURN(tcob::FileId file, disk->OpenFile(name));
    TCOB_ASSIGN_OR_RETURN(tcob::PageNo n, disk->NumPages(file));
    for (tcob::PageNo p = 0; p < n; ++p) pages.emplace_back(file, p);
  }
  return pages;
}

/// Pulls every page of the database's files into the pool when they fit
/// (the lookup workloads' data is meant to be cache-resident), then runs
/// a few unmeasured reads.
Status Bench::Warm(Database* db) {
  TCOB_ASSIGN_OR_RETURN(std::vector<PageRef> pages, AllPages(db));
  if (pages.size() <= db->pool()->capacity()) {
    for (const auto& [file, page_no] : pages) {
      TCOB_ASSIGN_OR_RETURN(tcob::Page * page,
                            db->pool()->FetchPage(file, page_no));
      db->pool()->Unpin(page, false);
    }
  }
  OpStream warm(w_, args_.seed, StreamRole::kReader, 1);
  Tally scratch;
  for (size_t i = 0; i < kWarmupReads; ++i) {
    RunRead(db, warm.Next(), nullptr, &scratch);
  }
  Check(scratch.reads_failed == 0,
        "warm-up read failed: " +
            (scratch.errors.empty() ? std::string() : scratch.errors[0]));
  return Status::OK();
}

bool Bench::RunRead(Database* db, const Op& op, SpanLane* lane, Tally* t) {
  ++t->reads_attempted;
  const uint64_t op_id = NextOpId();
  ScopedSpan root(lane, "client.read", op_id);
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<tcob::Cursor>> cursor = Status::Internal("unset");
  {
    ScopedSpan s(lane, "db.query", op_id);
    cursor = db->Query(op.mql);
  }
  if (!cursor.ok()) {
    ++t->reads_failed;
    t->Error(op.mql + ": " + cursor.status().ToString());
    return false;
  }
  double first_row_us = -1;
  uint64_t rows = 0;
  Status status;
  {
    ScopedSpan s(lane, "query.drain", op_id);
    std::vector<Value> row;
    while (true) {
      Result<bool> more = (*cursor)->Next(&row);
      if (!more.ok()) {
        status = more.status();
        break;
      }
      if (!*more) break;
      if (rows++ == 0) first_row_us = SinceUs(t0);
    }
  }
  const double total_us = SinceUs(t0);
  cursor->reset();
  if (!status.ok()) {
    ++t->reads_failed;
    t->Error(op.mql + ": " + status.ToString());
    return false;
  }
  bool right = true;
  if (w_.read_mix == ReadMix::kReport) {
    auto [it, fresh] = expected_rows_.emplace(op.mql, rows);
    right = rows > 0 && (fresh || it->second == rows);
  } else {
    right = rows == w_.shape.atoms_per_molecule();
  }
  if (!right) {
    ++t->reads_failed;
    t->Error("wrong row count " + std::to_string(rows) + " for: " + op.mql);
    return false;
  }
  t->read_us.push_back(total_us);
  t->read_statement.push_back(op.statement);
  t->first_row_us.push_back(first_row_us);
  if (lane != nullptr) t->qs.Add(db->last_query_stats(), total_us);
  return true;
}

bool Bench::RunWrite(Database* db, const Op& op, SpanLane* lane, Tally* t) {
  ++t->writes_attempted;
  const uint64_t op_id = NextOpId();
  ScopedSpan root(lane, "client.write", op_id);
  const Clock::time_point t0 = Clock::now();
  const std::vector<AtomId>& emps = handles_.emps[op.dept];
  Status st;
  for (int attempt = 0; attempt < kMaxTxnAttempts; ++attempt) {
    if (op.kind == OpKind::kAutoUpdate) {
      const Clock::time_point c0 = Clock::now();
      {
        ScopedSpan s(lane, "db.update_atom", op_id);
        st = db->UpdateAtom("Emp", emps[op.emps[0]],
                            {{"salary", Value::Int(op.salaries[0])}},
                            db->Now(), /*from_now=*/true);
      }
      t->autocommit_us += SinceUs(c0);
      ++t->autocommit_calls;
    } else {
      std::unique_ptr<tcob::Transaction> txn;
      {
        ScopedSpan s(lane, "db.begin", op_id);
        txn = std::make_unique<tcob::Transaction>(db->Begin());
      }
      st = Status::OK();
      for (size_t i = 0; i < op.emps.size() && st.ok(); ++i) {
        ScopedSpan s(lane, "db.txn_update_atom", op_id);
        st = txn->UpdateAtom("Emp", emps[op.emps[i]],
                             {{"salary", Value::Int(op.salaries[i])}},
                             txn->local_now(), /*from_now=*/true);
      }
      if (st.ok()) {
        ++t->commit_attempts;
        const Clock::time_point c0 = Clock::now();
        {
          ScopedSpan s(lane, "db.commit", op_id);
          st = txn->Commit();
        }
        t->commit_us += SinceUs(c0);
        ++t->commit_calls;
        if (st.ok()) ++t->commits_ok;
      }
    }
    if (!st.IsTxnConflict()) break;
    ++t->conflicts;
  }
  if (!st.ok()) {
    ++t->writes_failed;
    t->Error(op.ToString() + ": " + st.ToString());
    return false;
  }
  // Latency counts from the first attempt, retries included.
  t->write_us.push_back(SinceUs(t0));
  t->acked_updates += op.emps.size();
  return true;
}

Status Bench::Checkpoint(Database* db, SpanLane* lane, Tally* t) {
  const uint64_t writes0 = db->disk()->stats().writes;
  const Clock::time_point t0 = Clock::now();
  Status st;
  {
    ScopedSpan s(lane, "storage.checkpoint", NextOpId());
    st = db->Checkpoint();
  }
  t->checkpoint_us += SinceUs(t0);
  ++t->checkpoints;
  t->checkpoint_disk_writes += db->disk()->stats().writes - writes0;
  return st;
}

void Bench::ReaderLoop(Database* db, Database* probe_db,
                       Clock::time_point deadline, SpanLane* lane, Tally* t,
                       Tally* probe, bool* complete) {
  uint64_t reads = 0;
  uint64_t checkpoints = 0;
  while (Clock::now() < deadline) {
    if (w_.writers == 0 && reads >= w_.epoch_reads) {
      *complete = true;
      return;
    }
    if (w_.writers > 0 && writers_done_.load() == w_.writers) {
      *complete = true;
      return;
    }
    RunRead(db, reader_->Next(), lane, t);
    ++reads;
    if (probe_db != nullptr && reads % w_.probe_every_reads == 0) {
      ProbeBurst(probe_db, probe);
    }
    if (w_.checkpoint_every > 0 &&
        committed_writes_.load() / w_.checkpoint_every > checkpoints) {
      ++checkpoints;
      Status st = Checkpoint(db, lane, t);
      Check(st.ok(), "checkpoint failed: " + st.ToString());
    }
  }
}

/// One burst of timed auto-commit updates on a read-only workload's
/// probe database, on the reader's thread between two reads.
void Bench::ProbeBurst(Database* probe_db, Tally* probe) {
  const double cpu0 = ThreadCpuUs();
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < w_.probe_burst; ++i) {
    RunWrite(probe_db, probe_stream_->Next(), nullptr, probe);
  }
  probe->probe_wall_us += SinceUs(t0);
  probe->probe_cpu_us += ThreadCpuUs() - cpu0;
}

void Bench::WriterLoop(Database* db, size_t index, Clock::time_point deadline,
                       SpanLane* lane, Tally* t) {
  for (uint64_t i = 0; i < w_.epoch_writes_per_writer; ++i) {
    if (Clock::now() >= deadline) break;
    if (RunWrite(db, writers_[index]->Next(), lane, t)) {
      committed_writes_.fetch_add(1);
    }
  }
  writers_done_.fetch_add(1);
}

Status Bench::RunEpoch(double budget_us, bool traced, Phase* phase) {
  // A read-only workload's probe database: a second fresh copy that only
  // the write probes touch.
  std::unique_ptr<Database> probe_db;
  uint64_t probe_versions0 = 0;
  if (w_.probe_burst > 0) {
    TCOB_ASSIGN_OR_RETURN(probe_db, OpenCopy(probe_dir_));
    TCOB_RETURN_NOT_OK(Warm(probe_db.get()));
    TCOB_ASSIGN_OR_RETURN(probe_versions0, CountEmpVersions(probe_db.get()));
  }
  TCOB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, OpenCopy(epoch_dir_));
  TCOB_RETURN_NOT_OK(Warm(db.get()));
  TCOB_ASSIGN_OR_RETURN(uint64_t versions0, CountEmpVersions(db.get()));
  committed_writes_ = 0;
  writers_done_ = 0;

  const size_t clients = 1 + w_.writers;
  std::vector<Tally> tallies(clients);
  Tally probe;
  std::vector<SpanLane*> lanes(clients, nullptr);
  if (traced) {
    lanes[0] = NewLane("reader");
    for (size_t i = 1; i < clients; ++i) {
      lanes[i] = NewLane("writer-" + std::to_string(i - 1));
    }
  }
  bool complete = false;

  const MetricsSnapshot m0 = db->MetricsSnapshot();
  const double rss0 = ProcStatusKb("VmRSS");
  const double cpu0 = ProcessCpuUs();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::microseconds(static_cast<int64_t>(budget_us));
  {
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      ReaderLoop(db.get(), probe_db.get(), deadline, lanes[0], &tallies[0],
                 &probe, &complete);
    });
    for (size_t i = 0; i < w_.writers; ++i) {
      threads.emplace_back([&, i] {
        WriterLoop(db.get(), i, deadline, lanes[i + 1], &tallies[i + 1]);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  // The workload's own time: the probe bursts are left out.
  const double wall_us = SinceUs(t0) - probe.probe_wall_us;
  const double cpu_us = ProcessCpuUs() - cpu0 - probe.probe_cpu_us;
  const double rss1 = ProcStatusKb("VmRSS");
  const MetricsSnapshot m1 = db->MetricsSnapshot();

  Tally epoch;
  for (const Tally& t : tallies) epoch.Merge(t);
  const double ops = static_cast<double>(epoch.ReadsOk() + epoch.WritesOk());
  phase->wall_us += wall_us;
  phase->cpu_us += cpu_us;
  ++phase->epochs;
  phase->deltas.AddDelta(m0, m1);
  if (ops > 0) phase->rss_kb_per_kop.push_back((rss1 - rss0) / (ops / 1000));
  if (complete) {
    phase->rss_end_kb.push_back(rss1);
    phase->epoch_ops_per_s.push_back(Ratio(ops, wall_us / 1e6));
    phase->epoch_cpu_us_per_op.push_back(Ratio(cpu_us, ops));
  }
  phase->read_us.push_back(epoch.read_us);
  phase->first_row_us.push_back(epoch.first_row_us);

  if (traced && !flight_recorder_dumped_) {
    fs::create_directories(args_.artifacts_dir);
    Status st =
        db->DumpTraceToFile(args_.artifacts_dir + "/flight_recorder.json");
    Check(st.ok(), "flight recorder dump failed: " + st.ToString());
    flight_recorder_dumped_ = true;
  }

  // Closing checkpoint, then the epoch's correctness checks.
  TCOB_RETURN_NOT_OK(db->Checkpoint());
  if (w_.writers > 0) {
    TCOB_RETURN_NOT_OK(CheckWrites(db.get(), versions0, epoch.acked_updates));
    phase->write_us.push_back(epoch.write_us);
  }
  if (complete) {
    phase->db_bytes.push_back(static_cast<double>(DirBytes(epoch_dir_)));
  }
  if (probe_db != nullptr) {
    TCOB_RETURN_NOT_OK(probe_db->Checkpoint());
    TCOB_RETURN_NOT_OK(
        CheckWrites(probe_db.get(), probe_versions0, probe.acked_updates));
    phase->write_us.push_back(probe.write_us);
    probe_.Merge(probe);
  }
  db.reset();
  probe_db.reset();
  phase->tally.Merge(epoch);
  return Status::OK();
}

/// Every employee's versions, hot and cold. Counted per atom rather than
/// from SpaceStats(), whose version_count the integrated store leaves
/// at 0.
Result<uint64_t> Bench::CountEmpVersions(Database* db) const {
  TCOB_ASSIGN_OR_RETURN(const tcob::AtomTypeDef* emp_type,
                        db->catalog().GetAtomTypeByName("Emp"));
  uint64_t total = 0;
  for (const auto& dept_emps : handles_.emps) {
    for (AtomId emp : dept_emps) {
      TCOB_ASSIGN_OR_RETURN(
          std::vector<tcob::AtomVersion> versions,
          db->store()->GetVersions(*emp_type, emp, tcob::Interval::All()));
      total += versions.size();
    }
  }
  return total;
}

/// After writes: the database passes VerifyIntegrity, and the employees
/// gained exactly one version per acknowledged update.
Status Bench::CheckWrites(Database* db, uint64_t versions_before,
                          uint64_t acked_updates) {
  Status integrity = db->VerifyIntegrity();
  Check(integrity.ok(), "VerifyIntegrity failed: " + integrity.ToString());
  TCOB_ASSIGN_OR_RETURN(uint64_t versions_after, CountEmpVersions(db));
  Check(versions_after - versions_before == acked_updates,
        "Emp version growth " + std::to_string(versions_after - versions_before) +
            " != acknowledged updates " + std::to_string(acked_updates));
  return Status::OK();
}

/// Times each layer's public entry points directly on the workload's
/// seeded inputs; returns the mean microseconds per call by metric name.
Status Bench::LayerProbes(std::map<std::string, double>* out) {
  TCOB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                        OpenCopy(epoch_dir_));
  TCOB_RETURN_NOT_OK(Warm(db.get()));
  SpanLane* lane = NewLane("probe");
  const tcob::Catalog& catalog = db->catalog();
  TCOB_ASSIGN_OR_RETURN(const tcob::MoleculeTypeDef* mol,
                        catalog.GetMoleculeTypeByName("DeptMol"));
  TCOB_ASSIGN_OR_RETURN(const tcob::AtomTypeDef* emp_type,
                        catalog.GetAtomTypeByName("Emp"));
  const tcob::Materializer mat = db->materializer();
  const tcob::TemporalAtomStore* store = db->store();

  OpStream stream(w_, args_.seed, StreamRole::kReader, 0);
  std::vector<Op> inputs;
  for (size_t i = 0; i < kProbeInputs; ++i) inputs.push_back(stream.Next());
  auto instant = [&](const Op& op) {
    return op.at_now ? db->Now() : op.at;
  };

  // Calls `fn(input)` over the inputs, round robin, until the call or
  // time budget is spent; records a span per call; returns the mean.
  auto probe = [&](const std::string& metric, const char* span,
                   const std::function<bool(const Op&)>& fn) {
    const uint64_t op_id = NextOpId();
    ScopedSpan loop(lane, "client.probe", op_id);
    double total_us = 0;
    size_t calls = 0;
    while (calls < kProbeMaxCalls && total_us < kProbeBudgetUs) {
      const Op& op = inputs[calls % inputs.size()];
      const Clock::time_point t0 = Clock::now();
      bool ok;
      {
        ScopedSpan s(lane, span, op_id);
        ok = fn(op);
      }
      total_us += SinceUs(t0);
      ++calls;
      if (!ok) {
        Check(false, "probe " + metric + " failed");
        break;
      }
    }
    (*out)[metric] = Ratio(total_us, static_cast<double>(calls));
  };

  probe("query.parse_us", "query.parse", [&](const Op& op) {
    return tcob::Parser::Parse(op.mql).ok();
  });
  probe("mad.as_of_us", "mad.materialize_as_of", [&](const Op& op) {
    return mat.MaterializeAsOf(*mol, handles_.depts[op.dept], instant(op))
        .ok();
  });
  probe("mad.history_us", "mad.history", [&](const Op& op) {
    return mat.History(*mol, handles_.depts[op.dept], tcob::Interval::All())
        .ok();
  });
  // Store probes: one call per employee of the op's department.
  std::vector<std::pair<AtomId, Timestamp>> atoms;
  for (const Op& op : inputs) {
    for (AtomId emp : handles_.emps[op.dept]) atoms.emplace_back(emp, instant(op));
  }
  size_t next_atom = 0;
  probe("tstore.get_as_of_us", "tstore.get_as_of", [&](const Op&) {
    const auto& [id, t] = atoms[next_atom++ % atoms.size()];
    auto v = store->GetAsOf(*emp_type, id, t);
    return v.ok() && v->has_value();
  });
  probe("tstore.get_versions_us", "tstore.get_versions", [&](const Op&) {
    const auto& [id, t] = atoms[next_atom++ % atoms.size()];
    auto v = store->GetVersions(*emp_type, id, tcob::Interval::All());
    return v.ok() && !v->empty();
  });
  if (w_.name_index) {
    TCOB_ASSIGN_OR_RETURN(const tcob::AttrIndexDef* def,
                          catalog.GetAttrIndexByName("dept_name"));
    probe("index.lookup_as_of_us", "index.lookup_as_of", [&](const Op& op) {
      tcob::ValueRange range;
      range.lower = Value::String(DeptName(op.dept));
      range.upper = range.lower;
      range.upper_inclusive = true;
      auto ids = db->attr_indexes()->LookupAsOf(*def, range, instant(op));
      return ids.ok() && ids->size() == 1 &&
             (*ids)[0] == handles_.depts[op.dept];
    });
  } else {
    (*out)["index.lookup_as_of_us"] = 0;
  }

  // Buffer pool: FetchPage + Unpin on resident pages, then on pages the
  // pool just dropped (pread + checksum verify).
  tcob::BufferPool* pool = db->pool();
  TCOB_ASSIGN_OR_RETURN(std::vector<PageRef> pages, AllPages(db.get()));
  pages.resize(std::min(pages.size(), pool->capacity() / 2));
  size_t next_page = 0;
  auto fetch = [&](const Op&) {
    const auto& [file, page_no] = pages[next_page++ % pages.size()];
    auto page = pool->FetchPage(file, page_no);
    if (!page.ok()) return false;
    pool->Unpin(*page, false);
    return true;
  };
  for (size_t i = 0; i < pages.size(); ++i) fetch(inputs[0]);
  probe("storage.fetch_hit_us", "storage.fetch_hit", fetch);
  next_page = 0;
  probe("storage.fetch_miss_us", "storage.fetch_miss", [&](const Op& op) {
    if (next_page % pages.size() == 0 && !pool->Reset().ok()) return false;
    return fetch(op);
  });
  return Status::OK();
}

// ---------------------------------------------------------------- output

std::string OptionsJson(const tcob::DatabaseOptions& o) {
  std::ostringstream s;
  s << "{\"strategy\":" << Quote(tcob::StorageStrategyName(o.strategy))
    << ",\"buffer_pool_pages\":" << o.buffer_pool_pages
    << ",\"separated_version_index\":"
    << (o.store.separated_version_index ? "true" : "false")
    << ",\"sync_wal\":" << (o.sync_wal ? "true" : "false")
    << ",\"group_commit\":" << (o.group_commit ? "true" : "false")
    << ",\"group_commit_window_micros\":" << o.group_commit_window_micros
    << ",\"parallelism\":" << o.parallelism
    << ",\"tiering\":{\"enabled\":" << (o.tiering.enabled ? "true" : "false")
    << ",\"cold_age\":" << o.tiering.cold_age
    << ",\"segment_target_bytes\":" << o.tiering.segment_target_bytes << "}"
    << ",\"default_query_deadline_micros\":"
    << o.default_query_deadline_micros
    << ",\"memory_budget_bytes\":" << o.memory_budget_bytes
    << ",\"max_inflight_queries\":" << o.max_inflight_queries
    << ",\"trace\":{\"enabled\":" << (o.trace.enabled ? "true" : "false")
    << ",\"ring_bytes\":" << o.trace.ring_bytes << "}}";
  return s.str();
}

std::string Bench::MetadataJson() const {
  utsname u{};
  uname(&u);
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
#ifdef NDEBUG
  const bool release_like = true;
#else
  const bool release_like = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::ostringstream s;
  s << "{\"git_sha\":" << Quote(args_.git_sha)
    << ",\"source_sha256\":" << Quote(args_.source_sha256)
    << ",\"build_type\":" << Quote(build_type)
    << ",\"non_release_build\":"
    << (build_type != "Release" || !release_like ? "true" : "false")
    << ",\"compiler\":" << Quote(std::string("g++ ") + __VERSION__)
    << ",\"host\":" << Quote(host)
    << ",\"kernel\":" << Quote(std::string(u.sysname) + " " + u.release)
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"workload\":" << Quote(w_.name) << ",\"seed\":" << args_.seed
    << ",\"seconds\":" << Num(args_.seconds)
    << ",\"trace\":" << (args_.trace ? 1 : 0)
    << ",\"clients\":{\"readers\":1,\"writers\":" << w_.writers
    << ",\"model\":\"closed-loop\"}"
    << ",\"write_probe\":{\"every_reads\":" << w_.probe_every_reads
    << ",\"burst\":" << w_.probe_burst << "}"
    << ",\"company\":{\"depts\":" << w_.shape.depts
    << ",\"emps_per_dept\":" << w_.shape.emps_per_dept
    << ",\"projs_per_emp\":" << w_.shape.projs_per_emp
    << ",\"versions\":" << w_.shape.versions << "}"
    << ",\"options\":" << OptionsJson(w_.options) << "}";
  return s.str();
}

std::string Metric(const std::string& name, double value,
                   const std::string& unit) {
  return Quote(name) + ":{\"value\":" + Num(value) +
         ",\"unit\":" + Quote(unit) + "}";
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ",";
    out += parts[i];
  }
  return out;
}

std::string JoinNums(const std::vector<double>& values) {
  std::vector<std::string> parts;
  for (double v : values) parts.push_back(Num(v));
  return Join(parts);
}

/// Nearest-rank percentiles of all samples of a phase, for the shape of
/// a latency distribution.
std::string PercentilesJson(const std::vector<std::vector<double>>& epochs) {
  std::vector<double> all;
  for (const std::vector<double>& e : epochs) {
    all.insert(all.end(), e.begin(), e.end());
  }
  std::sort(all.begin(), all.end());
  const std::pair<uint32_t, const char*> cuts[] = {
      {100, "p10"}, {250, "p25"}, {500, "p50"}, {750, "p75"},
      {900, "p90"}, {950, "p95"}, {990, "p99"}, {999, "p99.9"}};
  std::vector<std::string> parts;
  for (const auto& [permille, name] : cuts) {
    parts.push_back(Quote(name) + ":" + Num(PercentileSorted(all, permille)));
  }
  return "{" + Join(parts) + "}";
}

/// Median read latency and read count per statement class.
std::string Bench::ByStatementJson(const Tally& t) const {
  std::vector<std::vector<double>> by(w_.statement_names.size());
  for (size_t i = 0; i < t.read_us.size(); ++i) {
    by[static_cast<size_t>(t.read_statement[i])].push_back(t.read_us[i]);
  }
  std::vector<std::string> parts;
  for (size_t c = 0; c < by.size(); ++c) {
    parts.push_back(Quote(w_.statement_names[c]) + ":{\"reads\":" +
                    std::to_string(by[c].size()) +
                    ",\"p50\":" + Num(Median(by[c])) + "}");
  }
  return "{" + Join(parts) + "}";
}

std::string Bench::EndToEndJson(const Phase& p) const {
  auto p50 = [](const std::vector<std::vector<double>>& epochs) {
    return SummarizeRun(epochs).p50;
  };
  auto p99 = [](const std::vector<std::vector<double>>& epochs) {
    return SummarizeRun(epochs).p99;
  };
  const double ops =
      static_cast<double>(p.tally.ReadsOk() + p.tally.WritesOk());
  const double rss_kb =
      p.rss_end_kb.empty() ? ProcStatusKb("VmHWM") : Median(p.rss_end_kb);
  std::vector<std::string> m = {
      Metric("read_p50_us", p50(p.read_us), "us"),
      Metric("read_p99_us", p99(p.read_us), "us"),
      Metric("first_row_p50_us", p50(p.first_row_us), "us"),
      Metric("write_p50_us", p50(p.write_us), "us"),
      Metric("write_p99_us", p99(p.write_us), "us"),
      Metric("ops_per_s",
             p.epoch_ops_per_s.empty() ? Ratio(ops, p.wall_us / 1e6)
                                       : UpperQuartile(p.epoch_ops_per_s),
             "op/s"),
      Metric("cpu_us_per_op",
             p.epoch_cpu_us_per_op.empty()
                 ? Ratio(p.cpu_us, ops)
                 : LowerQuartile(p.epoch_cpu_us_per_op),
             "us"),
      Metric("peak_rss_mb", rss_kb / 1024, "MiB"),
      Metric("db_mb", Median(p.db_bytes) / (1024 * 1024), "MiB"),
      Metric("setup_s", Median(setup_s_), "s"),
  };
  return Join(m);
}

std::string Bench::PerLayerJson(
    const Phase& traced, const Phase& untraced,
    const std::map<std::string, double>& probes) const {
  const Tally& t = traced.tally;
  const CounterDeltas& d = traced.deltas;
  const double reads = static_cast<double>(t.qs.reads);
  const double ops = static_cast<double>(t.ReadsOk() + t.WritesOk());
  const double writes = static_cast<double>(t.WritesOk());
  const double vcache_hits = d.Get("tcob_vcache_atom_hits_total") +
                             d.Get("tcob_vcache_link_hits_total");
  const double vcache_probes = vcache_hits +
                               d.Get("tcob_vcache_atom_misses_total") +
                               d.Get("tcob_vcache_link_misses_total");
  const double store_accesses = d.Get("tcob_store_get_as_of_total") +
                                d.Get("tcob_store_get_versions_total") +
                                d.Get("tcob_store_scan_as_of_total") +
                                d.Get("tcob_store_scan_versions_total");
  auto probe = [&](const std::string& name) {
    auto it = probes.find(name);
    return it == probes.end() ? 0.0 : it->second;
  };
  std::vector<std::string> m = {
      Metric("query.parse_us", probe("query.parse_us"), "us"),
      Metric("query.plan_us", Ratio(t.qs.plan_us, reads), "us"),
      Metric("query.emit_us", Ratio(t.qs.emit_us, reads), "us"),
      Metric("query.aggregate_us", Ratio(t.qs.aggregate_us, reads), "us"),
      Metric("query.cursor_overhead_us", Ratio(t.qs.CursorOverheadUs(), reads),
             "us"),
      Metric("mad.materialize_us", Ratio(t.qs.materialize_us, reads), "us"),
      Metric("mad.as_of_us", probe("mad.as_of_us"), "us"),
      Metric("mad.history_us", probe("mad.history_us"), "us"),
      Metric("mad.vcache_hit_rate", Ratio(vcache_hits, vcache_probes),
             "ratio"),
      Metric("mad.versions_pinned_per_op",
             Ratio(d.Get("tcob_vcache_versions_pinned_total"), ops), "count"),
      Metric("tstore.accesses_per_op", Ratio(store_accesses, ops), "count"),
      Metric("tstore.get_as_of_us", probe("tstore.get_as_of_us"), "us"),
      Metric("tstore.get_versions_us", probe("tstore.get_versions_us"), "us"),
      Metric("tstore.cold_segments_scanned_per_op",
             Ratio(d.Get("tcob_cold_segments_scanned_total"), ops), "count"),
      Metric("tstore.cold_segments_pruned_per_op",
             Ratio(d.Get("tcob_cold_segments_pruned_total"), ops), "count"),
      Metric("index.lookup_as_of_us", probe("index.lookup_as_of_us"), "us"),
      Metric("storage.pool_hit_rate",
             Ratio(d.Get("tcob_pool_hits_total"),
                   d.Get("tcob_pool_fetches_total")),
             "ratio"),
      Metric("storage.pool_misses_per_op",
             Ratio(d.Get("tcob_pool_misses_total"), ops), "count"),
      Metric("storage.disk_reads_per_op",
             Ratio(d.Get("tcob_disk_reads_total"), ops), "count"),
      Metric("storage.fetch_hit_us", probe("storage.fetch_hit_us"), "us"),
      Metric("storage.fetch_miss_us", probe("storage.fetch_miss_us"), "us"),
      Metric("storage.checkpoint_us",
             Ratio(t.checkpoint_us, static_cast<double>(t.checkpoints)), "us"),
      Metric("storage.disk_writes_per_checkpoint",
             Ratio(static_cast<double>(t.checkpoint_disk_writes),
                   static_cast<double>(t.checkpoints)),
             "count"),
      Metric("wal.bytes_per_write",
             Ratio(d.Get("tcob_wal_appended_bytes_total"), writes), "B"),
      Metric("wal.fsyncs_per_write", Ratio(d.Get("tcob_wal_syncs_total"), writes),
             "count"),
      Metric("wal.group_size_mean",
             Ratio(d.group_commit_sum, d.group_commit_count), "count"),
      Metric("db.commit_us",
             Ratio(t.commit_us, static_cast<double>(t.commit_calls)), "us"),
      Metric("db.autocommit_us",
             Ratio(t.autocommit_us, static_cast<double>(t.autocommit_calls)),
             "us"),
      Metric("db.txn_success_ratio",
             Ratio(static_cast<double>(t.commits_ok),
                   static_cast<double>(t.commit_attempts)),
             "ratio"),
      Metric("proc.rss_kb_per_kop", Median(traced.rss_kb_per_kop), "KiB"),
  };

  // Tracing overhead: traced versus untraced epochs of this run.
  auto pct = [](double traced_v, double untraced_v) {
    return untraced_v > 0 ? (traced_v - untraced_v) / untraced_v * 100 : 0;
  };
  const double traced_ops = ops;
  const double untraced_ops = static_cast<double>(
      untraced.tally.ReadsOk() + untraced.tally.WritesOk());
  m.push_back(Metric("trace.read_p50_overhead_pct",
                     pct(Median(t.read_us), Median(untraced.tally.read_us)),
                     "%"));
  m.push_back(Metric("trace.first_row_p50_overhead_pct",
                     pct(Median(t.first_row_us),
                         Median(untraced.tally.first_row_us)),
                     "%"));
  m.push_back(Metric(
      "trace.ops_per_s_overhead_pct",
      pct(Ratio(untraced_ops, untraced.wall_us), Ratio(traced_ops, traced.wall_us)),
      "%"));
  m.push_back(Metric("trace.cpu_us_per_op_overhead_pct",
                     pct(Ratio(traced.cpu_us, traced_ops),
                         Ratio(untraced.cpu_us, untraced_ops)),
                     "%"));
  return Join(m);
}

Status Bench::WriteArtifacts(const Phase& traced) const {
  fs::create_directories(args_.artifacts_dir);
  std::vector<const SpanLane*> lanes;
  uint64_t dropped = 0;
  for (const auto& lane : lanes_) {
    lanes.push_back(lane.get());
    dropped += lane->dropped();
  }
  {
    std::ofstream out(args_.artifacts_dir + "/spans.json");
    out << ToChromeTraceJson(lanes);
    if (!out) return Status::IOError("cannot write spans.json");
  }
  // Self time per span and per layer, and the engine's own attribution
  // of a read (last_query_stats()), both per traced read.
  const std::map<std::string, SelfTime> self = ComputeSelfTime(lanes);
  std::map<std::string, SelfTime> layers;
  for (const auto& [name, st] : self) {
    SelfTime& l = layers[name.substr(0, name.find('.'))];
    l.count += st.count;
    l.total_us += st.total_us;
    l.self_us += st.self_us;
  }
  auto table = [](const std::map<std::string, SelfTime>& rows) {
    std::vector<std::string> out;
    for (const auto& [name, st] : rows) {
      out.push_back(Quote(name) + ":{\"count\":" + std::to_string(st.count) +
                    ",\"total_us\":" + Num(st.total_us) +
                    ",\"self_us\":" + Num(st.self_us) + "}");
    }
    return "{" + Join(out) + "}";
  };
  const QueryLayerSums& q = traced.tally.qs;
  const double reads = static_cast<double>(q.reads);
  std::ostringstream s;
  s << "{\"spans_dropped\":" << dropped << ",\"by_span\":" << table(self)
    << ",\"by_layer\":" << table(layers)
    << ",\"read_attribution_us\":{\"reads\":" << q.reads
    << ",\"op\":" << Num(Ratio(q.op_us, reads))
    << ",\"parse\":" << Num(Ratio(q.parse_us, reads))
    << ",\"plan\":" << Num(Ratio(q.plan_us, reads))
    << ",\"materialize\":" << Num(Ratio(q.materialize_us, reads))
    << ",\"emit\":" << Num(Ratio(q.emit_us, reads))
    << ",\"aggregate\":" << Num(Ratio(q.aggregate_us, reads))
    << ",\"sort\":" << Num(Ratio(q.sort_us, reads))
    << ",\"execute\":" << Num(Ratio(q.execute_us, reads))
    << ",\"cursor_overhead\":" << Num(Ratio(q.CursorOverheadUs(), reads))
    << "}}\n";
  std::ofstream out(args_.artifacts_dir + "/self_time.json");
  out << s.str();
  if (!out) return Status::IOError("cannot write self_time.json");
  return Status::OK();
}

int Bench::Run() {
  reader_ = std::make_unique<OpStream>(w_, args_.seed, StreamRole::kReader, 0);
  for (size_t i = 0; i < w_.writers; ++i) {
    writers_.push_back(
        std::make_unique<OpStream>(w_, args_.seed, StreamRole::kWriter, i));
  }
  probe_stream_ =
      std::make_unique<OpStream>(w_, args_.seed, StreamRole::kProbeWriter, 0);
  Status st = Setup();
  if (!st.ok()) {
    fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 2;
  }

  // Measured phase: epochs until the time budget is spent. A traced run
  // alternates traced and untraced epochs, so the difference between the
  // two is the tracing overhead under the same conditions.
  Phase untraced;
  Phase traced;
  const double budget_us = args_.seconds * 1e6;
  for (size_t epoch = 0;; ++epoch) {
    const double used_us = untraced.wall_us + traced.wall_us;
    if (used_us >= budget_us) break;
    const bool trace_epoch = args_.trace && epoch % 2 == 0;
    st = RunEpoch(budget_us - used_us, trace_epoch,
                  trace_epoch ? &traced : &untraced);
    if (!st.ok()) {
      fprintf(stderr, "epoch %zu failed: %s\n", epoch, st.ToString().c_str());
      return 2;
    }
  }

  std::map<std::string, double> layer_probes;
  if (args_.trace) st = LayerProbes(&layer_probes);
  if (!st.ok()) {
    fprintf(stderr, "probe failed: %s\n", st.ToString().c_str());
    return 2;
  }
  if (args_.trace) {
    st = WriteArtifacts(traced);
    if (!st.ok()) {
      fprintf(stderr, "artifacts: %s\n", st.ToString().c_str());
      return 2;
    }
  }

  Tally all;
  all.Merge(untraced.tally);
  all.Merge(traced.tally);
  all.Merge(probe_);
  // A tail percentile must rest on at least ten samples beyond it.
  const Phase& timed = args_.trace ? traced : untraced;
  const WindowedLatency reads = SummarizeRun(timed.read_us);
  const WindowedLatency writes = SummarizeRun(timed.write_us);
  if (!args_.trace) {
    Check(reads.supported_permille >= 990,
          "too few reads for read_p99_us: " + std::to_string(reads.count));
    Check(writes.supported_permille >= 990,
          "too few writes for write_p99_us: " + std::to_string(writes.count));
  }
  for (const std::string& e : all.errors) fprintf(stderr, "op error: %s\n", e.c_str());
  for (const std::string& e : check_errors_) {
    fprintf(stderr, "check failed: %s\n", e.c_str());
  }

  const uint64_t attempted = all.reads_attempted + all.writes_attempted;
  const uint64_t failed = all.reads_failed + all.writes_failed;
  const bool correct = failed == 0 && check_errors_.empty() && attempted > 0;
  // Per latency series: sample and window counts, the quartiles of the
  // window medians (their spread within the run), and the percentiles of
  // all samples (the shape of the distribution).
  auto series = [](const std::string& kind,
                   const std::vector<std::vector<double>>& epochs,
                   const WindowedLatency& w) {
    return "\"" + kind + "s\":" + std::to_string(w.count) + ",\"" + kind +
           "_windows\":" + std::to_string(w.windows) + ",\"" + kind +
           "_p50_window_quartiles_us\":[" + JoinNums(Quartiles(w.window_p50s)) +
           "],\"" + kind + "_tail_windows\":" + std::to_string(w.tail_windows) +
           ",\"" + kind + "_tail_permille\":" +
           std::to_string(w.supported_permille) + ",\"" + kind +
           "_percentiles_us\":" + PercentilesJson(epochs);
  };
  std::ostringstream samples;
  samples << "{" << series("read", timed.read_us, reads)
          << ",\"read_p50_us_by_statement\":" << ByStatementJson(timed.tally)
          << "," << series("write", timed.write_us, writes)
          << ",\"write_source\":\""
          << (w_.writers > 0 ? "measured" : "probe bursts") << "\""
          << ",\"txn_conflicts\":" << all.conflicts
          << ",\"epochs\":" << untraced.epochs + traced.epochs
          << ",\"measured_s\":"
          << Num((untraced.wall_us + traced.wall_us) / 1e6)
          << ",\"setup_s_all\":[" << JoinNums(setup_s_) << "]}";
  const std::string metadata =
      "{\"metadata\":" + MetadataJson() + ",\"samples\":" + samples.str() + "}";
  printf("%s\n", metadata.c_str());
  if (args_.trace) {
    std::ofstream(args_.artifacts_dir + "/metadata.json") << metadata << "\n";
  }
  const std::string metrics =
      args_.trace ? PerLayerJson(traced, untraced, layer_probes)
                  : EndToEndJson(untraced);
  printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
         correct ? "true" : "false", static_cast<unsigned long long>(attempted),
         static_cast<unsigned long long>(failed), metrics.c_str());
  fflush(stdout);
  fs::remove_all(args_.work_dir);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--artifacts-dir") {
      a->artifacts_dir = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--source-sha256") {
      a->source_sha256 = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->work_dir.empty() &&
         !a->artifacts_dir.empty() && a->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
            "--work-dir DIR --artifacts-dir DIR [--git-sha SHA] "
            "[--source-sha256 HASH]\n",
            argv[0]);
    return 64;
  }
  const perfbench::WorkloadConfig* w = perfbench::FindWorkload(args.workload);
  if (w == nullptr) {
    fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 64;
  }
  perfbench::Bench bench(*w, args);
  return bench.Run();
}
