#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "db/database.h"

namespace perfbench {

using tcob::AtomId;
using tcob::Timestamp;

/// Size and history depth of the benchmark's company database:
///
///   Dept(name, budget) -DeptEmp-> Emp(name, salary, rank) -EmpProj-> Proj
///
/// with the molecule type DeptMol rooted at Dept. Every atom is inserted
/// at `base`; then `versions - 1` rounds at base + k * stride give every
/// employee a new salary (and each department a new budget with
/// probability 0.1). Names never change, so `Dept.name` identifies one
/// department at every instant.
struct CompanyShape {
  size_t depts = 0;
  size_t emps_per_dept = 0;
  size_t projs_per_emp = 0;
  uint32_t versions = 0;
  Timestamp base = 10;
  Timestamp stride = 10;

  /// The instant every atom's first version starts.
  Timestamp first_time() const { return base; }
  /// NOW after loading: one past the last update round.
  Timestamp last_time() const {
    return base + static_cast<Timestamp>(versions - 1) * stride + 1;
  }
  /// Atom rows of one as-of DeptMol molecule: 1 + E + E * P.
  uint64_t atoms_per_molecule() const {
    return 1 + emps_per_dept + emps_per_dept * projs_per_emp;
  }
};

/// Name of department `d` ("d<d>"), its Dept.name at every instant.
std::string DeptName(size_t d);

/// Atom ids of a loaded company, by position.
struct CompanyHandles {
  std::vector<AtomId> depts;
  /// emps[d][e] is employee e of department d.
  std::vector<std::vector<AtomId>> emps;
};

/// Creates the schema and loads the data through the public Database
/// API. The values are a pure function of `seed`.
tcob::Result<CompanyHandles> LoadCompany(tcob::Database* db,
                                         const CompanyShape& shape,
                                         uint64_t seed);

/// What the reader sends: single-department lookups, or whole-database
/// reports.
enum class ReadMix { kLookup, kReport };

/// One benchmark workload: the database it builds, the clients that
/// drive it, and how a run is cut into epochs.
///
/// A run measures a sequence of epochs. Each epoch opens a fresh copy of
/// the set-up database, warms it, runs the clients until the epoch's op
/// budget or the run's time is used up, checkpoints and closes it. Fixed
/// budgets keep every epoch's final state (and so `db_mb`) and the
/// engine's per-instance memory the same however fast the engine runs.
struct WorkloadConfig {
  std::string name;
  CompanyShape shape;
  tcob::DatabaseOptions options;
  /// CREATE INDEX on Dept.name after loading.
  bool name_index = false;
  ReadMix read_mix = ReadMix::kLookup;
  /// Writer client threads; 0 makes the workload read-only.
  size_t writers = 0;
  /// Reads per epoch (read-only workloads).
  uint64_t epoch_reads = 0;
  /// Write ops per writer per epoch (writing workloads).
  uint64_t epoch_writes_per_writer = 0;
  /// The reader checkpoints after every this many committed writes.
  uint64_t checkpoint_every = 0;
  /// Read-only workloads: after every `probe_every_reads` reads, the
  /// reader times a burst of `probe_burst` auto-commit updates on a
  /// second copy of the set-up database. Write latency is thus measured
  /// on every workload's physical design, spread over the run like its
  /// reads, while the database the reads see takes no writes.
  size_t probe_every_reads = 0;
  size_t probe_burst = 0;
  /// Names of the read statement classes, indexed by Op::statement.
  std::vector<std::string> statement_names;
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadConfig>& Workloads();
/// nullptr when no workload has that name.
const WorkloadConfig* FindWorkload(const std::string& name);

enum class OpKind { kRead, kAutoUpdate, kTxnUpdate };

/// One generated client request.
struct Op {
  OpKind kind = OpKind::kRead;
  /// kRead: statement class (WorkloadConfig::statement_names) and text.
  int statement = 0;
  std::string mql;
  /// The department the op touches; report statements, which span every
  /// department, name one to drive the per-layer probes.
  size_t dept = 0;
  /// kRead: the instant (or window start) the statement binds; NOW
  /// statements set `at_now`.
  bool at_now = false;
  Timestamp at = 0;
  /// Writes: employees of `dept` (positions) and their new salaries.
  std::vector<size_t> emps;
  std::vector<int64_t> salaries;

  /// Canonical text of the op (the MQL for reads), for determinism checks.
  std::string ToString() const;
};

/// Which client a stream feeds; each gets an independent sequence.
enum class StreamRole { kReader, kWriter, kProbeWriter };

/// A client's request stream: a pure function of (workload, seed, role,
/// client index). Clients never share a stream, so every client's ops
/// repeat exactly for a seed whatever the thread interleaving.
class OpStream {
 public:
  OpStream(const WorkloadConfig& workload, uint64_t seed, StreamRole role,
           size_t index);

  Op Next();

 private:
  Op NextLookup(bool allow_past);
  Op NextReport();
  Op NextWrite();
  /// A report instant: three quarters in the newest (hot) quarter of
  /// history, the rest uniform over older history; mid-version, so a
  /// small set of statement texts repeats.
  Timestamp ReportInstant();
  /// The next class of a stratified mix drawn from `block`: `counts[c]`
  /// of every sum(counts) consecutive draws are of class c, in shuffled
  /// order, so every window of the run sees the same mix.
  int NextClass(std::vector<int>* block, const std::vector<int>& counts);

  const WorkloadConfig* workload_;
  StreamRole role_;
  tcob::Random rng_;
  bool next_is_txn_ = false;
  // Classes left in the current blocks of the statement and instant mixes.
  std::vector<int> statement_block_;
  std::vector<int> instant_block_;
};

/// The first `n` ops of a stream rendered as text, one per line.
std::string RenderStream(const WorkloadConfig& workload, uint64_t seed,
                         StreamRole role, size_t index, size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
