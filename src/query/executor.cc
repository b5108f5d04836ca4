#include "query/executor.h"

#include <set>

#include "query/expr_eval.h"
#include "query/planner.h"

namespace tcob {

Result<std::string> SelectExecutor::RenderAttrs(const AtomVersion& v) const {
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* def, catalog_->GetAtomType(v.type));
  std::string out;
  for (size_t i = 0; i < def->attributes.size() && i < v.attrs.size(); ++i) {
    if (i) out += ", ";
    out += def->attributes[i].name + "=" + v.attrs[i].ToString();
  }
  return out;
}

Status SelectExecutor::EmitMolecule(const SelectStmt& stmt,
                                    const SelectPlan& plan,
                                    const Molecule& molecule,
                                    const Interval* state_valid,
                                    RowBuffer* rows) const {
  if (ctx_ != nullptr) TCOB_RETURN_NOT_OK(ctx_->Check());
  if (trace_ != nullptr) {
    ++(state_valid == nullptr ? trace_->molecules : trace_->states);
    trace_->atoms_visited += molecule.atoms.size();
  }
  ExprEvaluator eval(catalog_, now_);

  auto push_state_columns = [&](std::vector<Value>* row) {
    if (state_valid != nullptr) {
      row->push_back(Value::Time(state_valid->begin));
      row->push_back(Value::Time(state_valid->end));
    }
  };

  if (plan.select_all) {
    if (stmt.where != nullptr) {
      TCOB_ASSIGN_OR_RETURN(bool ok, eval.Satisfies(*stmt.where, molecule));
      if (!ok) return Status::OK();
    }
    for (const auto& [id, version] : molecule.atoms) {
      TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* def,
                            catalog_->GetAtomType(version.type));
      std::vector<Value> row;
      row.push_back(Value::Id(molecule.root));
      push_state_columns(&row);
      row.push_back(Value::Id(id));
      row.push_back(Value::String(def->name));
      TCOB_ASSIGN_OR_RETURN(std::string attrs, RenderAttrs(version));
      row.push_back(Value::String(std::move(attrs)));
      rows->push_back(std::move(row));
    }
    return Status::OK();
  }

  // Projection: enumerate bindings over projected + predicate types.
  std::set<std::string> binding_types;
  for (const AttrRef& ref : plan.projection) {
    binding_types.insert(ref.type_name);
  }
  if (stmt.where != nullptr) {
    ExprEvaluator::CollectTypes(*stmt.where, &binding_types);
  }
  TCOB_ASSIGN_OR_RETURN(std::vector<Binding> bindings,
                        eval.EnumerateBindings(molecule, binding_types));
  // (An empty binding-type set yields exactly one empty binding — one
  // row per molecule, which is what COUNT(*) wants.)
  // De-duplicate projected rows when the predicate-only types fan out.
  std::set<std::vector<std::string>> seen;
  for (const Binding& binding : bindings) {
    if (stmt.where != nullptr) {
      TCOB_ASSIGN_OR_RETURN(bool ok, eval.EvalBool(*stmt.where, binding));
      if (!ok) continue;
    }
    std::vector<Value> row;
    row.push_back(Value::Id(molecule.root));
    push_state_columns(&row);
    std::vector<std::string> fingerprint;
    for (const AttrRef& ref : plan.projection) {
      auto it = binding.atoms.find(ref.type_name);
      if (it == binding.atoms.end()) {
        return Status::Internal("projection type unbound: " + ref.type_name);
      }
      TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* def,
                            catalog_->GetAtomTypeByName(ref.type_name));
      int idx = def->AttrIndex(ref.attr_name);
      if (idx < 0) {
        return Status::InvalidArgument("unknown attribute " + ref.ToString());
      }
      row.push_back(it->second->attrs[idx]);
      fingerprint.push_back(std::to_string(it->second->id));
    }
    if (!seen.insert(fingerprint).second) continue;
    rows->push_back(std::move(row));
  }
  return Status::OK();
}

namespace {

/// The row indices of one aggregation group.
using RowGroup = std::vector<size_t>;

}  // namespace

Result<ResultSet> SelectExecutor::FoldAggregates(
    const SelectStmt& stmt, const std::vector<AttrRef>& projection,
    bool windowed, const ResultSet& rows) const {
  const size_t base = 1 + (windowed ? 2 : 0);
  // Partition the hidden-projection rows into groups: one global group,
  // or one per molecule root for GROUP BY ROOT.
  std::map<AtomId, RowGroup> groups;
  if (stmt.group_by_root) {
    for (size_t i = 0; i < rows.rows.size(); ++i) {
      groups[rows.rows[i][0].AsId()].push_back(i);
    }
  } else {
    RowGroup& all = groups[kInvalidAtomId];
    all.resize(rows.rows.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  }

  ResultSet out;
  if (stmt.group_by_root) out.columns.push_back("ROOT");
  for (const AggSpec& agg : stmt.aggregates) {
    out.columns.push_back(agg.ToString());
  }
  for (const auto& [root, group] : groups) {
    std::vector<Value> result_row;
    if (stmt.group_by_root) result_row.push_back(Value::Id(root));
    TCOB_RETURN_NOT_OK(
        FoldGroup(stmt, projection, base, rows, group, &result_row));
    out.rows.push_back(std::move(result_row));
  }
  out.message = rows.message;
  return out;
}

Status SelectExecutor::FoldGroup(const SelectStmt& stmt,
                                 const std::vector<AttrRef>& projection,
                                 size_t base, const ResultSet& rows,
                                 const std::vector<size_t>& group,
                                 std::vector<Value>* result_row) const {
  for (const AggSpec& agg : stmt.aggregates) {
    if (agg.fn == AggFn::kCount && agg.star) {
      result_row->push_back(Value::Int(static_cast<int64_t>(group.size())));
      continue;
    }
    // Locate the hidden projection column of this aggregate's attribute.
    size_t column = base;
    bool found = false;
    for (size_t i = 0; i < projection.size(); ++i) {
      if (projection[i].type_name == agg.ref.type_name &&
          projection[i].attr_name == agg.ref.attr_name) {
        column = base + i;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Internal("aggregate column not projected: " +
                              agg.ref.ToString());
    }
    int64_t count = 0;
    double sum = 0;
    bool numeric_ok = true;
    std::optional<Value> best;  // MIN / MAX
    for (size_t row_index : group) {
      const auto& row = rows.rows[row_index];
      const Value& v = row[column];
      if (v.is_null()) continue;  // NULLs do not participate
      ++count;
      if (v.type() == AttrType::kInt || v.type() == AttrType::kDouble) {
        sum += v.NumericValue();
      } else {
        numeric_ok = false;
      }
      if (!best.has_value()) {
        best = v;
      } else {
        TCOB_ASSIGN_OR_RETURN(int cmp, v.Compare(*best));
        if ((agg.fn == AggFn::kMin && cmp < 0) ||
            (agg.fn == AggFn::kMax && cmp > 0)) {
          best = v;
        }
      }
    }
    switch (agg.fn) {
      case AggFn::kCount:
        result_row->push_back(Value::Int(count));
        break;
      case AggFn::kSum:
      case AggFn::kAvg: {
        if (!numeric_ok) {
          return Status::TypeError("SUM/AVG require a numeric attribute: " +
                                   agg.ref.ToString());
        }
        if (count == 0) {
          result_row->push_back(Value::Null(AttrType::kDouble));
        } else if (agg.fn == AggFn::kSum) {
          result_row->push_back(Value::Double(sum));
        } else {
          result_row->push_back(Value::Double(sum / count));
        }
        break;
      }
      case AggFn::kMin:
      case AggFn::kMax:
        result_row->push_back(best.has_value()
                                  ? *best
                                  : Value::Null(AttrType::kString));
        break;
    }
  }
  return Status::OK();
}

Result<MoleculeTypeDef> SelectExecutor::ResolveMoleculeType(
    const SelectStmt& stmt) const {
  if (stmt.inline_root.empty()) {
    TCOB_ASSIGN_OR_RETURN(const MoleculeTypeDef* named,
                          catalog_->GetMoleculeTypeByName(stmt.molecule_type));
    return *named;
  }
  // Ad-hoc definition: resolve the root and links, check connectedness.
  MoleculeTypeDef def;
  def.name = "<inline>";
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* root,
                        catalog_->GetAtomTypeByName(stmt.inline_root));
  def.root_type = root->id;
  std::set<TypeId> reached = {root->id};
  for (const auto& [link_name, forward] : stmt.inline_edges) {
    TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                          catalog_->GetLinkTypeByName(link_name));
    TypeId source = forward ? link->from_type : link->to_type;
    TypeId target = forward ? link->to_type : link->from_type;
    if (reached.count(source) == 0) {
      return Status::InvalidArgument(
          "inline molecule is disconnected at link " + link_name);
    }
    reached.insert(target);
    def.edges.push_back(MoleculeEdge{link->id, forward});
  }
  return def;
}

Result<ResultSet> SelectExecutor::Explain(const SelectStmt& stmt) const {
  TCOB_ASSIGN_OR_RETURN(MoleculeTypeDef resolved, ResolveMoleculeType(stmt));
  RootAccessPath path = PlanRootAccess(stmt, *catalog_, resolved);
  ResultSet out;
  out.columns = {"PLAN"};
  out.rows.push_back({Value::String(path.description)});
  const char* mode = stmt.mode == TemporalMode::kAsOf
                         ? "time slice (VALID AT)"
                         : (stmt.mode == TemporalMode::kWindow
                                ? "window (VALID IN)"
                                : "history");
  out.rows.push_back({Value::String(std::string("temporal mode: ") + mode)});
  out.rows.push_back({Value::String(
      "molecule materialization: fixpoint over " +
      std::to_string(resolved.edges.size()) + " edge(s)" +
      (stmt.inline_root.empty() ? "" : " (inline definition)"))});
  if (!stmt.aggregates.empty()) {
    out.rows.push_back({Value::String(
        std::string("aggregation: ") + std::to_string(stmt.aggregates.size()) +
        " aggregate(s)" + (stmt.group_by_root ? ", grouped by root" : ""))});
  }
  return out;
}

namespace {

/// Applies the ORDER BY clause: stable sort by the named column.
Status ApplyOrderBy(const SelectStmt& stmt, ResultSet* out) {
  if (stmt.order_by.empty()) return Status::OK();
  size_t column = out->columns.size();
  for (size_t i = 0; i < out->columns.size(); ++i) {
    if (out->columns[i] == stmt.order_by) {
      column = i;
      break;
    }
  }
  if (column == out->columns.size()) {
    return Status::InvalidArgument(
        "ORDER BY column must appear in the result: " + stmt.order_by);
  }
  Status sort_error = Status::OK();
  std::stable_sort(out->rows.begin(), out->rows.end(),
                   [&](const std::vector<Value>& a,
                       const std::vector<Value>& b) {
                     Result<int> cmp = a[column].Compare(b[column]);
                     if (!cmp.ok()) {
                       if (sort_error.ok()) sort_error = cmp.status();
                       return false;
                     }
                     return stmt.order_desc ? cmp.value() > 0
                                            : cmp.value() < 0;
                   });
  return sort_error;
}

}  // namespace

Result<SelectPlan> SelectExecutor::Plan(const SelectStmt& stmt) const {
  TraceSpanScope span(rec_, TraceSpanId::kPlan);
  StopwatchUs plan_timer;
  SelectPlan plan;
  TCOB_ASSIGN_OR_RETURN(plan.resolved, ResolveMoleculeType(stmt));
  plan.aggregate = !stmt.aggregates.empty();
  plan.select_all = stmt.select_all && !plan.aggregate;
  plan.windowed = stmt.mode != TemporalMode::kAsOf;
  plan.projection = stmt.projection;
  if (plan.aggregate) {
    plan.projection.clear();
    for (const AggSpec& agg : stmt.aggregates) {
      if (agg.star) continue;
      bool dup = false;
      for (const AttrRef& ref : plan.projection) {
        dup = dup || (ref.type_name == agg.ref.type_name &&
                      ref.attr_name == agg.ref.attr_name);
      }
      if (!dup) plan.projection.push_back(agg.ref);
    }
  }

  plan.columns.push_back("ROOT");
  if (plan.windowed) {
    plan.columns.push_back("VALID_FROM");
    plan.columns.push_back("VALID_TO");
  }
  if (plan.select_all) {
    plan.columns.push_back("ATOM");
    plan.columns.push_back("TYPE");
    plan.columns.push_back("ATTRS");
  } else {
    for (const AttrRef& ref : plan.projection) {
      plan.columns.push_back(ref.ToString());
    }
  }

  if (stmt.mode == TemporalMode::kAsOf) {
    plan.path = PlanRootAccess(stmt, *catalog_, plan.resolved);
    if (plan.path.use_index && indexes_ != nullptr) {
      plan.message = plan.path.description;
    }
    if (trace_ != nullptr) trace_->plan = plan.path.description;
  } else {
    plan.window = stmt.mode == TemporalMode::kHistory ? Interval::All()
                                                      : stmt.window;
    if (stmt.mode == TemporalMode::kWindow && stmt.window_end_now) {
      plan.window.end = now_;
    }
    if (plan.window.empty()) {
      return Status::InvalidArgument("empty query window");
    }
    if (trace_ != nullptr && trace_->plan.empty()) {
      trace_->plan = "seq scan of root versions, incremental history sweep";
    }
  }
  if (trace_ != nullptr) {
    const double plan_us = plan_timer.ElapsedUs();
    trace_->plan_us += plan_us;
    trace_->execute_us += plan_us;
  }
  return plan;
}

Result<std::unique_ptr<RootStream>> SelectExecutor::OpenStream(
    const SelectStmt& stmt, const SelectPlan& plan) const {
  if (plan.windowed) {
    return materializer_->StreamHistories(plan.resolved, plan.window);
  }
  Timestamp t = stmt.at_now ? now_ : stmt.at;
  if (plan.path.use_index && indexes_ != nullptr) {
    TCOB_ASSIGN_OR_RETURN(const AttrIndexDef* index,
                          catalog_->GetAttrIndex(plan.path.index));
    TCOB_ASSIGN_OR_RETURN(std::vector<AtomId> roots,
                          indexes_->LookupAsOf(*index, plan.path.range, t));
    // The index is version-grained, so a listed root should be valid at
    // t, but the stream stays defensive and skips roots that are not.
    return materializer_->StreamAsOf(plan.resolved, std::move(roots), t);
  }
  return materializer_->StreamAsOf(plan.resolved, t);
}

Status SelectExecutor::EmitRoot(const SelectStmt& stmt, const SelectPlan& plan,
                                const RootResult& root,
                                RowBuffer* rows) const {
  if (!plan.windowed) {
    return EmitMolecule(stmt, plan, root.molecule, nullptr, rows);
  }
  if (trace_ != nullptr) ++trace_->molecules;
  for (const MoleculeState& state : root.history.states) {
    Interval clipped = state.valid.Intersect(plan.window);
    if (clipped.empty()) continue;
    TCOB_RETURN_NOT_OK(
        EmitMolecule(stmt, plan, state.molecule, &clipped, rows));
  }
  return Status::OK();
}

Result<bool> SelectExecutor::Step(const SelectStmt& stmt,
                                  const SelectPlan& plan,
                                  std::unique_ptr<RootStream>* stream,
                                  RowBuffer* rows) const {
  StopwatchUs step_timer;
  RootResult root;
  Result<bool> more = true;
  if (*stream == nullptr) {
    Result<std::unique_ptr<RootStream>> opened = OpenStream(stmt, plan);
    if (opened.ok()) {
      *stream = std::move(opened).value();
    } else {
      more = opened.status();
    }
  }
  if (more.ok()) more = (*stream)->Next(&root);
  const double materialize_us = step_timer.ElapsedUs();
  if (more.ok() && more.value()) {
    Status emitted = EmitRoot(stmt, plan, root, rows);
    if (!emitted.ok()) more = emitted;
  }
  if (trace_ != nullptr) {
    const double step_us = step_timer.ElapsedUs();
    trace_->materialize_us += materialize_us;
    trace_->emit_us += step_us - materialize_us;
    trace_->execute_us += step_us;
  }
  return more;
}

void SelectExecutor::Finish(const SelectStmt& stmt,
                            std::unique_ptr<RootStream>* stream) const {
  stream->reset();  // joins fan-out workers, folds their stats
  if (trace_ == nullptr) return;
  trace_->temporal_mode = stmt.mode == TemporalMode::kAsOf
                              ? "as-of"
                              : (stmt.mode == TemporalMode::kWindow
                                     ? "window"
                                     : "history");
  trace_->cache = materializer_->cache_stats();
  trace_->worker_us = materializer_->last_worker_micros();
  trace_->parallelism =
      trace_->worker_us.empty() ? 1 : trace_->worker_us.size();
}

Result<ResultSet> SelectExecutor::Execute(const SelectStmt& stmt) const {
  TCOB_ASSIGN_OR_RETURN(SelectPlan plan, Plan(stmt));
  ResultSet out;
  out.columns = plan.columns;
  out.message = plan.message;
  {
    TraceSpanScope span(rec_, TraceSpanId::kExecute);
    std::unique_ptr<RootStream> stream;
    Result<bool> more = true;
    while (more.ok() && more.value()) {
      more = Step(stmt, plan, &stream, &out.rows);
    }
    Finish(stmt, &stream);
    TCOB_RETURN_NOT_OK(more.status());
  }

  StopwatchUs breaker_timer;
  if (plan.aggregate) {
    TraceSpanScope span(rec_, TraceSpanId::kAggregate);
    StopwatchUs agg_timer;
    TCOB_ASSIGN_OR_RETURN(
        out, FoldAggregates(stmt, plan.projection, plan.windowed, out));
    if (trace_ != nullptr) trace_->aggregate_us += agg_timer.ElapsedUs();
  }
  StopwatchUs sort_timer;
  if (!stmt.order_by.empty()) {
    TraceSpanScope span(rec_, TraceSpanId::kSort);
    TCOB_RETURN_NOT_OK(ApplyOrderBy(stmt, &out));
  }
  if (trace_ != nullptr) {
    trace_->sort_us += sort_timer.ElapsedUs();
    trace_->execute_us += breaker_timer.ElapsedUs();
    trace_->rows = out.rows.size();
  }
  return out;
}

}  // namespace tcob
