#ifndef TCOB_QUERY_CURSOR_H_
#define TCOB_QUERY_CURSOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/resource_budget.h"
#include "common/result.h"
#include "query/executor.h"
#include "query/result_set.h"

namespace tcob {

/// Pull-based stream over one statement's result rows.
///
/// Obtained from Database::Query (which is "Open"); the caller pulls
/// rows with Next/NextBatch and releases the stream with Close. For
/// streamable SELECTs the pulls drive the query: a pull that finds no
/// buffered row advances it by one root on the caller's thread, so
/// first-row latency and buffered memory are independent of the result
/// size, and rows arrive in exactly the order the materialized API
/// returns them. Aggregates and ORDER BY (pipeline breakers) yield a
/// cursor over the pre-computed result instead.
///
/// Lifecycle rules (single-threaded per Database, like every other
/// call): drain or Close the cursor before executing the next statement
/// on its Database, and never let it outlive the Database. Close is
/// idempotent and implied by destruction; closing mid-stream is the
/// supported way to abandon a large result early.
class Cursor {
 public:
  virtual ~Cursor() = default;

  /// Result column names; valid from open (before any row is pulled).
  virtual const std::vector<std::string>& columns() const = 0;

  /// Pulls the next row into `*row`. ok(true) = row filled, ok(false) =
  /// end of stream. A stream error is sticky: every pull after it
  /// returns the same status.
  virtual Result<bool> Next(std::vector<Value>* row) = 0;

  /// Pulls up to `max_rows` rows (clearing `*rows` first); returns how
  /// many arrived. Fewer than `max_rows` — including 0 — means the
  /// stream ended.
  virtual Result<size_t> NextBatch(size_t max_rows,
                                   std::vector<std::vector<Value>>* rows);

  /// Releases the stream, ending the query where it stands. Idempotent;
  /// also run by the destructor.
  virtual void Close() = 0;

  /// Requests cancellation of the query behind this cursor. Unlike every
  /// other cursor call, Cancel is safe from any thread — it is how a
  /// second thread aborts a pull loop in progress: the next Next/
  /// NextBatch returns Status::Cancelled in bounded time. A no-op for
  /// cursors over already-materialized results.
  virtual void Cancel() {}

  /// Non-row payload (DML outcome, the index-path note).
  virtual const std::string& message() const = 0;
};

/// Cursor over an already-materialized ResultSet: DML/DDL results,
/// aggregate and ORDER BY queries.
class MaterializedCursor : public Cursor {
 public:
  explicit MaterializedCursor(ResultSet result)
      : result_(std::move(result)) {}

  const std::vector<std::string>& columns() const override {
    return result_.columns;
  }
  const std::string& message() const override { return result_.message; }
  Result<bool> Next(std::vector<Value>* row) override;
  void Close() override;

 private:
  ResultSet result_;
  size_t next_ = 0;
};

/// Counters a streaming cursor reports when it finishes.
struct StreamingCursorStats {
  /// Rows handed to the consumer.
  uint64_t rows_streamed = 0;
  /// Most rows one step ever buffered (one root's rows) — the
  /// engine-level proof that streaming memory stays flat in the result
  /// size.
  uint64_t peak_buffered_rows = 0;
};

/// Cursor that advances its query on the caller's thread.
///
/// No thread is started: whenever the buffer is empty, Next() runs one
/// step of the query — the next root's molecule or history, rendered
/// into rows — and then serves those rows. First-row latency is one
/// root's materialization, and the buffer never holds more than one
/// root's rows. At parallelism > 1 a step pops the fan-out workers'
/// channels in root order instead of building the root itself.
class StreamingCursor : public Cursor {
 public:
  struct Options {
    /// The query's cancellation scope; Cancel() forwards into it so a
    /// step in progress unwinds too. May be null.
    std::shared_ptr<QueryContext> context;
    /// Memory lease to charge buffered rows against (must outlive the
    /// cursor). May be null.
    BudgetLease* lease = nullptr;
  };

  /// Advances the query by one root, appending its rows (possibly none)
  /// to the buffer; false = every root has been stepped.
  using StepFn = std::function<Result<bool>(RowBuffer* rows)>;
  /// Runs exactly once, when the stream ends (end of stream, a stream
  /// error, cancellation, or Close) — the hook where the Database ends
  /// the execution and stamps the query trace and metrics.
  using FinalizeFn =
      std::function<void(const Status&, const StreamingCursorStats&)>;

  /// Runs no step yet. `on_first_row` (may be null) fires when the first
  /// row is handed to the consumer — the first-row latency probe.
  StreamingCursor(std::vector<std::string> columns, std::string message,
                  StepFn step, FinalizeFn finalize,
                  std::function<void()> on_first_row, Options options);
  ~StreamingCursor() override;

  StreamingCursor(const StreamingCursor&) = delete;
  StreamingCursor& operator=(const StreamingCursor&) = delete;

  const std::vector<std::string>& columns() const override {
    return columns_;
  }
  const std::string& message() const override { return message_; }
  Result<bool> Next(std::vector<Value>* row) override;
  void Close() override;
  /// Thread-safe: touches only an atomic flag and the query context, so
  /// a step in progress unwinds at its next governance check. The next
  /// pull returns Status::Cancelled.
  void Cancel() override;

 private:
  /// Ends the stream with `status` and runs the finalize hook.
  void End(Status status);
  /// Drops the served buffer and returns its bytes to the lease.
  void ReleaseBuffer();

  const std::vector<std::string> columns_;
  const std::string message_;
  const Options options_;
  StepFn step_;
  FinalizeFn finalize_;
  std::function<void()> on_first_row_;

  RowBuffer buffer_;  // the current step's rows
  uint64_t buffer_bytes_ = 0;
  bool buffer_charged_ = false;
  size_t buffer_next_ = 0;
  uint64_t rows_delivered_ = 0;
  uint64_t peak_buffered_rows_ = 0;
  bool end_ = false;     // no more rows will be served
  bool closed_ = false;  // Close() ran
  std::atomic<bool> cancelled_{false};
  Status final_status_ = Status::OK();  // sticky stream error
};

}  // namespace tcob

#endif  // TCOB_QUERY_CURSOR_H_
