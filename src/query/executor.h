#ifndef TCOB_QUERY_EXECUTOR_H_
#define TCOB_QUERY_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/trace_ring.h"
#include "index/attr_index.h"
#include "mad/materializer.h"
#include "query/ast.h"
#include "query/planner.h"
#include "query/query_stats.h"
#include "query/result_set.h"

namespace tcob {

/// Result rows as the executor produces them.
using RowBuffer = std::vector<std::vector<Value>>;

/// Everything about a SELECT that is resolvable before the first row:
/// the molecule type, temporal window, root access path, and the result
/// column shape. Computed once by SelectExecutor::Plan so a streaming
/// caller can expose the columns while the rows are still being made.
struct SelectPlan {
  MoleculeTypeDef resolved;
  /// Root access (as-of statements only; windowed modes always scan).
  RootAccessPath path;
  /// The effective query window (windowed modes; validated non-empty).
  Interval window;
  bool select_all = false;
  bool aggregate = false;
  bool windowed = false;
  /// Effective projection: the explicit list, or the distinct attributes
  /// referenced by aggregates (their hidden projection).
  std::vector<AttrRef> projection;
  /// Columns of the streamed rows (pre-aggregation shape).
  std::vector<std::string> columns;
  /// ResultSet message (the index-path note, when one is used).
  std::string message;
};

/// Executes SELECT statements against the molecule engine.
///
/// Row shapes:
///  * `SELECT ALL`: one row per atom of each qualifying molecule —
///    columns ROOT, ATOM, TYPE, ATTRS (+ VALID_FROM/VALID_TO of the
///    molecule state for window/history queries).
///  * projection list: one row per qualifying binding of the projected
///    atom types — columns ROOT, <Type.attr>... (+ the state interval for
///    window/history queries).
///
/// Temporal semantics:
///  * `VALID AT t` materializes each molecule as of t,
///  * `VALID IN [a,b)` / `HISTORY` enumerate each molecule's maximal
///    constant states overlapping the window; the WHERE predicate is
///    evaluated per state.
///
/// Execution is stepped: Plan, then Step once per root — each step
/// materializes the next root's molecule (VALID AT) or history (VALID IN
/// / HISTORY) and renders its rows — then Finish. The cursor runs one
/// step whenever its caller needs rows; Execute steps until done and is
/// the only path for aggregates and ORDER BY, which must see every row.
/// Both surfaces share this one pipeline, so their rows are
/// byte-identical for every streamable statement.
class SelectExecutor {
 public:
  /// `indexes` may be null (no secondary-index access paths then).
  SelectExecutor(const Catalog* catalog, const Materializer* materializer,
                 Timestamp now, const AttrIndexManager* indexes = nullptr)
      : catalog_(catalog),
        materializer_(materializer),
        now_(now),
        indexes_(indexes) {}

  Result<ResultSet> Execute(const SelectStmt& stmt) const;

  /// True when the statement's rows can be streamed in production order:
  /// no aggregates and no ORDER BY (both are pipeline breakers that need
  /// the whole row set before the first output row).
  static bool CanStream(const SelectStmt& stmt) {
    return stmt.aggregates.empty() && stmt.order_by.empty();
  }

  /// Resolves types, plans root access and fixes the column shape —
  /// everything that can fail or be reported before rows flow.
  Result<SelectPlan> Plan(const SelectStmt& stmt) const;

  /// Advances a planned statement by one root, appending that root's
  /// rows (possibly none: its predicate may reject them) to `*rows` in
  /// exactly the order Execute returns them. The first call opens
  /// `*stream` (an index probe or a root scan). Returns false, appending
  /// nothing, once every root has been stepped. Only in-step time is
  /// charged to the trace's execute/materialize/emit spans.
  Result<bool> Step(const SelectStmt& stmt, const SelectPlan& plan,
                    std::unique_ptr<RootStream>* stream,
                    RowBuffer* rows) const;

  /// Ends a stepped execution — after the last step, after an error, or
  /// early: stops the stream's fan-out workers, releases its cache, and
  /// stamps the trace's statement-wide fields (mode, cache stats, worker
  /// timings). Idempotent.
  void Finish(const SelectStmt& stmt,
              std::unique_ptr<RootStream>* stream) const;

  /// EXPLAIN: reports the access path and temporal mode without
  /// executing.
  Result<ResultSet> Explain(const SelectStmt& stmt) const;

  /// Attaches a trace that execution fills with per-operator timings and
  /// work counters (EXPLAIN ANALYZE). The trace's cache stats report the
  /// materializer's accumulated numbers, so callers wanting per-query
  /// attribution pass a freshly constructed (or reset) materializer.
  /// Null (the default) disables tracing; the fast path then pays only a
  /// pointer test per span. Every step runs on the caller's thread, so
  /// the trace is complete once Finish returns.
  void set_trace(QueryStats* trace) { trace_ = trace; }

  /// Attaches the query's cancellation scope: the row pipeline checks it
  /// per emitted molecule/state and unwinds with its status. Null (the
  /// default) disables the checks. The materializer has its own
  /// governance hook (set separately) for the loops below this layer.
  void set_context(const QueryContext* ctx) { ctx_ = ctx; }

  /// Attaches the flight recorder: execution wraps its operator phases
  /// (plan, execute, aggregate, sort, stream) in trace spans. Null (the
  /// default) records nothing.
  void set_recorder(TraceRecorder* rec) { rec_ = rec; }

 private:
  /// Opens the statement's root stream: the index probe or root scan.
  Result<std::unique_ptr<RootStream>> OpenStream(const SelectStmt& stmt,
                                                 const SelectPlan& plan) const;

  /// Renders one root's molecule (as-of) or its window-clipped states
  /// into `*rows`, counting the trace's work counters.
  Status EmitRoot(const SelectStmt& stmt, const SelectPlan& plan,
                  const RootResult& root, RowBuffer* rows) const;

  /// Renders one molecule state into `*rows` after the per-state
  /// governance check. `state_valid` null = as-of row shape, non-null =
  /// one constant state of a history.
  Status EmitMolecule(const SelectStmt& stmt, const SelectPlan& plan,
                      const Molecule& molecule, const Interval* state_valid,
                      RowBuffer* rows) const;

  /// Folds the hidden-projection rows of an aggregate query into the
  /// single result row.
  Result<ResultSet> FoldAggregates(const SelectStmt& stmt,
                                   const std::vector<AttrRef>& projection,
                                   bool windowed,
                                   const ResultSet& rows) const;

  /// Folds one aggregation group (row indices into `rows`) into
  /// `result_row`.
  Status FoldGroup(const SelectStmt& stmt,
                   const std::vector<AttrRef>& projection, size_t base,
                   const ResultSet& rows, const std::vector<size_t>& group,
                   std::vector<Value>* result_row) const;

  /// Renders "name=value, ..." for an atom's attributes.
  Result<std::string> RenderAttrs(const AtomVersion& v) const;

  /// Resolves the named molecule type, or builds the ad-hoc definition
  /// of a "FROM <Root> VIA ..." clause (validating connectedness).
  Result<MoleculeTypeDef> ResolveMoleculeType(const SelectStmt& stmt) const;

  const Catalog* catalog_;
  const Materializer* materializer_;
  Timestamp now_;
  const AttrIndexManager* indexes_;
  QueryStats* trace_ = nullptr;
  const QueryContext* ctx_ = nullptr;
  TraceRecorder* rec_ = nullptr;
};

}  // namespace tcob

#endif  // TCOB_QUERY_EXECUTOR_H_
