#include "query/cursor.h"

#include <algorithm>
#include <utility>

namespace tcob {

Result<size_t> Cursor::NextBatch(size_t max_rows,
                                 std::vector<std::vector<Value>>* rows) {
  rows->clear();
  std::vector<Value> row;
  while (rows->size() < max_rows) {
    TCOB_ASSIGN_OR_RETURN(bool more, Next(&row));
    if (!more) break;
    rows->push_back(std::move(row));
  }
  return rows->size();
}

Result<bool> MaterializedCursor::Next(std::vector<Value>* row) {
  if (next_ >= result_.rows.size()) return false;
  *row = std::move(result_.rows[next_++]);
  return true;
}

void MaterializedCursor::Close() {
  result_.rows.clear();
  next_ = 0;
}

namespace {

/// Rough heap footprint of a batch of rows, for budget accounting. Like
/// the version-cache estimate, string payloads are ignored: tracking the
/// buffered volume is what matters, not malloc-exact bytes.
uint64_t EstimateBatchBytes(const std::vector<std::vector<Value>>& rows) {
  uint64_t bytes = 0;
  for (const std::vector<Value>& row : rows) {
    bytes += 32 + row.size() * sizeof(Value);
  }
  return bytes;
}

}  // namespace

StreamingCursor::StreamingCursor(std::vector<std::string> columns,
                                 std::string message, StepFn step,
                                 FinalizeFn finalize,
                                 std::function<void()> on_first_row,
                                 Options options)
    : columns_(std::move(columns)),
      message_(std::move(message)),
      options_(std::move(options)),
      step_(std::move(step)),
      finalize_(std::move(finalize)),
      on_first_row_(std::move(on_first_row)) {}

StreamingCursor::~StreamingCursor() { Close(); }

Result<bool> StreamingCursor::Next(std::vector<Value>* row) {
  if (cancelled_.load(std::memory_order_acquire) && !end_) {
    End(Status::Cancelled("query cancelled"));
  }
  while (!end_ && buffer_next_ >= buffer_.size()) {
    ReleaseBuffer();
    Result<bool> more = step_(&buffer_);
    if (!more.ok()) {
      End(more.status());
    } else if (!more.value()) {
      End(Status::OK());
    } else {
      buffer_bytes_ = EstimateBatchBytes(buffer_);
      if (options_.lease != nullptr) {
        buffer_charged_ = options_.lease->Charge(buffer_bytes_);
      }
      peak_buffered_rows_ =
          std::max<uint64_t>(peak_buffered_rows_, buffer_.size());
    }
  }
  if (end_) {
    if (!final_status_.ok()) return final_status_;
    return false;
  }
  *row = std::move(buffer_[buffer_next_++]);
  ++rows_delivered_;
  if (rows_delivered_ == 1 && on_first_row_) on_first_row_();
  return true;
}

void StreamingCursor::Close() {
  if (closed_) return;
  closed_ = true;
  if (!end_) End(Status::OK());  // abandoned mid-stream: a clean stop
}

void StreamingCursor::Cancel() {
  cancelled_.store(true, std::memory_order_release);
  if (options_.context != nullptr) options_.context->Cancel();
}

void StreamingCursor::End(Status status) {
  end_ = true;
  ReleaseBuffer();
  final_status_ = std::move(status);
  StreamingCursorStats stats;
  stats.rows_streamed = rows_delivered_;
  stats.peak_buffered_rows = peak_buffered_rows_;
  if (finalize_) finalize_(final_status_, stats);
}

void StreamingCursor::ReleaseBuffer() {
  if (options_.lease != nullptr && buffer_bytes_ > 0) {
    options_.lease->Release(buffer_charged_ ? buffer_bytes_ : 0,
                            buffer_charged_ ? 0 : buffer_bytes_);
  }
  buffer_.clear();
  buffer_next_ = 0;
  buffer_bytes_ = 0;
  buffer_charged_ = false;
}

}  // namespace tcob
