#include "workload.h"

#include <algorithm>

namespace perfbench {

using tcob::AttrType;
using tcob::Database;
using tcob::Random;
using tcob::Result;
using tcob::Status;
using tcob::Value;

namespace {

/// Decorrelated sub-seed for one consumer of the run seed (the data
/// loader, or one client stream).
uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  Random mix(seed ^ (0x9E3779B97F4A7C15ull * (tag + 1)));
  return mix.Next();
}

constexpr uint64_t kDataTag = 0;

uint64_t StreamTag(StreamRole role, size_t index) {
  return 1 + static_cast<uint64_t>(role) * 1024 + index;
}

/// Newest quarter of history: versions from this round on stay hot.
uint32_t HotRound(const CompanyShape& s) { return s.versions - s.versions / 4; }

std::vector<WorkloadConfig> MakeWorkloads() {
  std::vector<WorkloadConfig> all;

  WorkloadConfig lookup;
  lookup.name = "lookup_hot";
  lookup.shape = {64, 10, 1, 32};
  lookup.options.strategy = tcob::StorageStrategy::kSeparated;
  lookup.options.buffer_pool_pages = 1024;
  lookup.options.parallelism = 1;
  lookup.name_index = true;
  lookup.epoch_reads = 2000;
  lookup.probe_every_reads = 200;
  lookup.probe_burst = 100;
  lookup.statement_names = {"lookup_now", "lookup_past"};
  all.push_back(lookup);

  WorkloadConfig report;
  report.name = "report_cold";
  report.shape = {16, 8, 1, 64};
  report.options.strategy = tcob::StorageStrategy::kIntegrated;
  report.options.buffer_pool_pages = 32;
  report.options.parallelism = 1;
  report.options.tiering.enabled = true;
  // Versions that ended before the newest quarter of history go cold.
  report.options.tiering.cold_age =
      report.shape.last_time() -
      (report.shape.base +
       static_cast<Timestamp>(HotRound(report.shape)) * report.shape.stride);
  report.read_mix = ReadMix::kReport;
  report.epoch_reads = 400;
  report.probe_every_reads = 20;
  report.probe_burst = 50;
  report.statement_names = {"history_projection", "window_all", "as_of_all",
                            "window_avg_by_root"};
  all.push_back(report);

  WorkloadConfig update = lookup;
  update.name = "update_mix";
  update.options.sync_wal = true;
  update.options.group_commit = true;
  update.writers = 3;
  update.epoch_reads = 0;
  update.epoch_writes_per_writer = 1000;
  update.checkpoint_every = 100;
  update.probe_every_reads = 0;
  update.probe_burst = 0;
  update.statement_names = {"lookup_now"};
  all.push_back(update);

  return all;
}

}  // namespace

std::string DeptName(size_t d) {
  std::string name = "d";
  name += std::to_string(d);
  return name;
}

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> all = MakeWorkloads();
  return all;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Result<CompanyHandles> LoadCompany(Database* db, const CompanyShape& shape,
                                   uint64_t seed) {
  Random rng(SubSeed(seed, kDataTag));
  CompanyHandles h;
  TCOB_RETURN_NOT_OK(db->CreateAtomType("Dept", {{"name", AttrType::kString},
                                                 {"budget", AttrType::kInt}})
                         .status());
  TCOB_RETURN_NOT_OK(db->CreateAtomType("Emp", {{"name", AttrType::kString},
                                                {"salary", AttrType::kInt},
                                                {"rank", AttrType::kInt}})
                         .status());
  TCOB_RETURN_NOT_OK(db->CreateAtomType("Proj", {{"title", AttrType::kString},
                                                 {"budget", AttrType::kInt}})
                         .status());
  TCOB_RETURN_NOT_OK(db->CreateLinkType("DeptEmp", "Dept", "Emp").status());
  TCOB_RETURN_NOT_OK(db->CreateLinkType("EmpProj", "Emp", "Proj").status());
  TCOB_RETURN_NOT_OK(db->CreateMoleculeType("DeptMol", "Dept",
                                            {{"DeptEmp", true},
                                             {"EmpProj", true}})
                         .status());

  const Timestamp t0 = shape.first_time();
  size_t proj_no = 0;
  for (size_t d = 0; d < shape.depts; ++d) {
    TCOB_ASSIGN_OR_RETURN(
        AtomId dept,
        db->InsertAtomValues(
            "Dept",
            {Value::String(DeptName(d)),
             Value::Int(static_cast<int64_t>(100 + rng.Uniform(900)))},
            t0));
    h.depts.push_back(dept);
    h.emps.emplace_back();
    for (size_t e = 0; e < shape.emps_per_dept; ++e) {
      TCOB_ASSIGN_OR_RETURN(
          AtomId emp,
          db->InsertAtomValues(
              "Emp",
              {Value::String("e" + std::to_string(d) + "-" +
                             std::to_string(e)),
               Value::Int(static_cast<int64_t>(1000 + rng.Uniform(4000))),
               Value::Int(static_cast<int64_t>(1 + rng.Uniform(5)))},
              t0));
      h.emps[d].push_back(emp);
      TCOB_RETURN_NOT_OK(db->Connect("DeptEmp", dept, emp, t0));
      for (size_t p = 0; p < shape.projs_per_emp; ++p) {
        TCOB_ASSIGN_OR_RETURN(
            AtomId proj,
            db->InsertAtomValues(
                "Proj",
                {Value::String("p" + std::to_string(proj_no++)),
                 Value::Int(static_cast<int64_t>(10 + rng.Uniform(90)))},
                t0));
        TCOB_RETURN_NOT_OK(db->Connect("EmpProj", emp, proj, t0));
      }
    }
  }

  for (uint32_t round = 1; round < shape.versions; ++round) {
    const Timestamp t = t0 + static_cast<Timestamp>(round) * shape.stride;
    for (const auto& dept_emps : h.emps) {
      for (AtomId emp : dept_emps) {
        TCOB_RETURN_NOT_OK(db->UpdateAtom(
            "Emp", emp,
            {{"salary",
              Value::Int(static_cast<int64_t>(1000 + rng.Uniform(4000)))}},
            t));
      }
    }
    for (AtomId dept : h.depts) {
      if (rng.Bernoulli(0.1)) {
        TCOB_RETURN_NOT_OK(db->UpdateAtom(
            "Dept", dept,
            {{"budget",
              Value::Int(static_cast<int64_t>(100 + rng.Uniform(900)))}},
            t));
      }
    }
  }
  db->SetNow(shape.last_time());
  return h;
}

std::string Op::ToString() const {
  switch (kind) {
    case OpKind::kRead:
      return mql;
    case OpKind::kAutoUpdate:
    case OpKind::kTxnUpdate: {
      std::string s = kind == OpKind::kTxnUpdate ? "TXN" : "AUTO";
      for (size_t i = 0; i < emps.size(); ++i) {
        s += " e" + std::to_string(dept) + "-" + std::to_string(emps[i]) +
             ".salary=" + std::to_string(salaries[i]);
      }
      return s;
    }
  }
  return "";
}

OpStream::OpStream(const WorkloadConfig& workload, uint64_t seed,
                   StreamRole role, size_t index)
    : workload_(&workload),
      role_(role),
      rng_(SubSeed(seed, StreamTag(role, index))) {}

Op OpStream::Next() {
  if (role_ != StreamRole::kReader) return NextWrite();
  if (workload_->read_mix == ReadMix::kReport) return NextReport();
  // update_mix's reader looks up the current state only.
  return NextLookup(/*allow_past=*/workload_->writers == 0);
}

Op OpStream::NextLookup(bool allow_past) {
  const CompanyShape& s = workload_->shape;
  Op op;
  op.dept = rng_.Skewed(s.depts);
  // 70% VALID AT NOW, 30% at a past instant.
  op.at_now = !allow_past || NextClass(&statement_block_, {7, 3}) == 0;
  std::string when = "NOW";
  if (!op.at_now) {
    op.at = s.first_time() +
            static_cast<Timestamp>(rng_.Uniform(
                static_cast<uint64_t>(s.last_time() - s.first_time())));
    when = std::to_string(op.at);
  }
  op.statement = op.at_now ? 0 : 1;
  op.mql = "SELECT ALL FROM DeptMol WHERE Dept.name = '" + DeptName(op.dept) +
           "' VALID AT " + when;
  return op;
}

Timestamp OpStream::ReportInstant() {
  const CompanyShape& s = workload_->shape;
  const uint32_t hot = HotRound(s);
  const uint64_t round = NextClass(&instant_block_, {3, 1}) == 0
                             ? hot + rng_.Uniform(s.versions - hot)
                             : rng_.Uniform(hot);
  // The newest version starts one chronon before NOW.
  return std::min<Timestamp>(
      s.base + static_cast<Timestamp>(round) * s.stride + s.stride / 2,
      s.last_time() - 1);
}

Op OpStream::NextReport() {
  const CompanyShape& s = workload_->shape;
  Op op;
  op.dept = rng_.Uniform(s.depts);
  op.at = ReportInstant();
  const uint64_t width = 1 + rng_.Uniform(4);
  const Timestamp end = std::min<Timestamp>(
      op.at + static_cast<Timestamp>(width) * s.stride, s.last_time());
  std::string window = "[";
  window += std::to_string(op.at) + ", " + std::to_string(end) + ")";
  // Mix: 5% full history, 30% windows, 45% time slices, 20% windowed
  // per-molecule aggregates.
  op.statement = NextClass(&statement_block_, {1, 6, 9, 4});
  if (op.statement == 0) {
    op.at = s.first_time();
    op.mql = "SELECT Dept.name, Emp.salary FROM DeptMol HISTORY";
  } else if (op.statement == 1) {
    op.mql = "SELECT ALL FROM DeptMol VALID IN " + window;
  } else if (op.statement == 2) {
    op.mql = "SELECT ALL FROM DeptMol VALID AT " + std::to_string(op.at);
  } else {
    op.mql = "SELECT AVG(Emp.salary) FROM DeptMol GROUP BY ROOT VALID IN " +
             window;
  }
  return op;
}

int OpStream::NextClass(std::vector<int>* block,
                        const std::vector<int>& counts) {
  if (block->empty()) {
    for (size_t c = 0; c < counts.size(); ++c) {
      block->insert(block->end(), static_cast<size_t>(counts[c]),
                    static_cast<int>(c));
    }
    for (size_t i = block->size(); i > 1; --i) {
      std::swap((*block)[i - 1], (*block)[rng_.Uniform(i)]);
    }
  }
  const int c = block->back();
  block->pop_back();
  return c;
}

Op OpStream::NextWrite() {
  const CompanyShape& s = workload_->shape;
  Op op;
  // Writers alternate an auto-commit update with a 2-3 update
  // transaction on one department; probe writers only auto-commit.
  const bool txn = role_ == StreamRole::kWriter && next_is_txn_;
  next_is_txn_ = !next_is_txn_;
  op.kind = txn ? OpKind::kTxnUpdate : OpKind::kAutoUpdate;
  op.dept = rng_.Skewed(s.depts);
  std::vector<size_t> pool(s.emps_per_dept);
  for (size_t e = 0; e < pool.size(); ++e) pool[e] = e;
  const size_t n = txn ? 2 + rng_.Uniform(2) : 1;
  for (size_t i = 0; i < n; ++i) {
    // Partial Fisher-Yates: distinct employees, skewed to the first.
    const size_t j = i + rng_.Skewed(pool.size() - i);
    std::swap(pool[i], pool[j]);
    op.emps.push_back(pool[i]);
    op.salaries.push_back(static_cast<int64_t>(1000 + rng_.Uniform(4000)));
  }
  return op;
}

std::string RenderStream(const WorkloadConfig& workload, uint64_t seed,
                         StreamRole role, size_t index, size_t n) {
  OpStream stream(workload, seed, role, index);
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out += stream.Next().ToString();
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
