#include "workload/company.h"

#include "common/random.h"

namespace tcob {

Result<CompanyHandles> BuildCompany(Database* db,
                                    const CompanyConfig& config) {
  Random rng(config.seed);
  CompanyHandles handles;

  TCOB_RETURN_NOT_OK(db->CreateAtomType(
                           "Dept", {{"name", AttrType::kString},
                                    {"budget", AttrType::kInt}})
                         .status());
  TCOB_RETURN_NOT_OK(db->CreateAtomType(
                           "Emp", {{"name", AttrType::kString},
                                   {"salary", AttrType::kInt},
                                   {"rank", AttrType::kInt}})
                         .status());
  TCOB_RETURN_NOT_OK(db->CreateAtomType(
                           "Proj", {{"title", AttrType::kString},
                                    {"budget", AttrType::kInt}})
                         .status());
  TCOB_RETURN_NOT_OK(db->CreateLinkType("DeptEmp", "Dept", "Emp").status());
  TCOB_RETURN_NOT_OK(db->CreateLinkType("EmpProj", "Emp", "Proj").status());
  TCOB_ASSIGN_OR_RETURN(
      handles.dept_mol,
      db->CreateMoleculeType("DeptMol", "Dept",
                             {{"DeptEmp", true}, {"EmpProj", true}}));

  const Timestamp t0 = config.base;
  for (size_t d = 0; d < config.depts; ++d) {
    TCOB_ASSIGN_OR_RETURN(
        AtomId dept,
        db->InsertAtomValues(
            "Dept",
            {Value::String("dept-" + std::to_string(d)),
             Value::Int(static_cast<int64_t>(100 + rng.Uniform(900)))},
            t0));
    handles.depts.push_back(dept);
    for (size_t e = 0; e < config.emps_per_dept; ++e) {
      TCOB_ASSIGN_OR_RETURN(
          AtomId emp,
          db->InsertAtomValues(
              "Emp",
              {Value::String("emp-" + std::to_string(d) + "-" +
                             std::to_string(e)),
               Value::Int(static_cast<int64_t>(1000 + rng.Uniform(4000))),
               Value::Int(static_cast<int64_t>(1 + rng.Uniform(5)))},
              t0));
      handles.emps.push_back(emp);
      TCOB_RETURN_NOT_OK(db->Connect("DeptEmp", dept, emp, t0));
      for (size_t p = 0; p < config.projs_per_emp; ++p) {
        TCOB_ASSIGN_OR_RETURN(
            AtomId proj,
            db->InsertAtomValues(
                "Proj",
                {Value::String("proj-" + std::to_string(handles.projs.size())),
                 Value::Int(static_cast<int64_t>(10 + rng.Uniform(90)))},
                t0));
        handles.projs.push_back(proj);
        TCOB_RETURN_NOT_OK(db->Connect("EmpProj", emp, proj, t0));
      }
    }
  }
  handles.first_time = t0;

  // Update rounds: each gives every employee a new salary version.
  Timestamp t = t0;
  for (uint32_t round = 1; round < config.versions_per_atom; ++round) {
    t = t0 + static_cast<Timestamp>(round) * config.stride;
    for (AtomId emp : handles.emps) {
      TCOB_RETURN_NOT_OK(db->UpdateAtom(
          "Emp", emp,
          {{"name", Value::String("emp-upd")},
           {"salary",
            Value::Int(static_cast<int64_t>(1000 + rng.Uniform(4000)))},
           {"rank", Value::Int(static_cast<int64_t>(1 + rng.Uniform(5)))}},
          t));
    }
    for (AtomId dept : handles.depts) {
      if (rng.Bernoulli(config.dept_update_prob)) {
        TCOB_RETURN_NOT_OK(db->UpdateAtom(
            "Dept", dept,
            {{"name", Value::String("dept-upd")},
             {"budget",
              Value::Int(static_cast<int64_t>(100 + rng.Uniform(900)))}},
            t));
      }
    }
  }
  handles.last_time = t + 1;
  db->SetNow(handles.last_time);
  return handles;
}

}  // namespace tcob
