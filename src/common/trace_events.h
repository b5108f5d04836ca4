#ifndef TCOB_COMMON_TRACE_EVENTS_H_
#define TCOB_COMMON_TRACE_EVENTS_H_

#include <cstdint>

namespace tcob {

/// Category bits of the flight recorder. One bit per subsystem so
/// operators can mask the noisy ones (pool traffic dwarfs everything
/// else on a cold cache) without losing the rest. The mask lives in
/// DatabaseOptions::trace.categories and can be flipped at runtime.
enum : uint32_t {
  kTraceCatQuery = 1u << 0,       // query begin/end
  kTraceCatSpan = 1u << 1,        // executor/worker operator spans
  kTraceCatWal = 1u << 2,         // WAL append + fsync
  kTraceCatCheckpoint = 1u << 3,  // checkpoint phases
  kTraceCatTier = 1u << 4,        // cold-tier migration phases
  kTraceCatPool = 1u << 5,        // buffer-pool miss/evict/steal
  kTraceCatAdmission = 1u << 6,   // admission enqueue/grant/timeout
  kTraceCatCancel = 1u << 7,      // cancellation / deadline fire
  kTraceCatBudget = 1u << 8,      // memory-budget refusal / pressure
  kTraceCatHealth = 1u << 9,      // health-state transitions
  kTraceCatIo = 1u << 10,         // transient-I/O retries
  kTraceCatTxn = 1u << 11,        // transaction begin/commit/abort
  kTraceCatAll = (1u << 12) - 1,
};

/// Number of category bits (the recorder keeps a recorded/dropped
/// counter pair per category).
constexpr int kTraceCategoryCount = 12;

/// Lowercase name of one category *bit* ("query", "wal", ...); "?" for
/// anything that is not exactly one known bit.
const char* TraceCategoryName(uint32_t cat_bit);

/// Fixed vocabulary of the flight recorder. Every event is 32 bytes in
/// the ring: timestamp, thread id + type, query id, one argument word.
/// The argument's meaning is per type (bytes appended, span id, phase
/// id, wait micros, ...) and is documented next to each entry.
enum class TraceEventType : uint16_t {
  kQueryBegin = 1,   // span open; arg unused
  kQueryEnd,         // span close; arg = rows produced
  kSpanBegin,        // arg = TraceSpanId
  kSpanEnd,          // arg = TraceSpanId
  kWalAppend,        // instant; arg = payload bytes
  kWalFsyncBegin,    // span open; arg unused
  kWalFsyncEnd,      // span close; arg unused
  kCheckpointPhaseBegin,  // arg = TraceCheckpointPhase
  kCheckpointPhaseEnd,    // arg = TraceCheckpointPhase
  kTierPhaseBegin,   // arg = TraceTierPhase
  kTierPhaseEnd,     // arg = TraceTierPhase
  kTierSegmentBuild, // instant; arg = versions in the built segment
  kPoolMiss,         // instant; arg = (file << 32 | page)
  kPoolEvict,        // instant; arg = (file << 32 | page) evicted
  kPoolSteal,        // instant; arg unused
  kAdmissionEnqueue, // instant; arg = queue depth on arrival
  kAdmissionGrant,   // instant; arg = micros waited
  kAdmissionTimeout, // instant; arg = micros waited
  kCancelFire,       // instant; arg unused
  kDeadlineFire,     // instant; arg unused
  kBudgetRefusal,    // instant; arg = refused bytes
  kBudgetPressure,   // instant; arg = refused bytes
  kHealthTransition, // instant; arg = HealthState ordinal
  kIoRetry,          // instant; arg = failed attempts so far
  kTxnBegin,         // instant; arg = txn id
  kTxnCommit,        // instant; arg = txn id
  kTxnAbort,         // instant; arg = txn id
  kTxnConflict,      // instant; arg = txn id that lost the race
};

/// Operator spans emitted by the executor and the fan-out workers
/// (the arg word of kSpanBegin/kSpanEnd).
enum class TraceSpanId : uint64_t {
  kPlan = 0,
  kExecute,
  kAggregate,
  kSort,
  kStream,
  kWorker,
};

/// Checkpoint phases in execution order (the arg word of
/// kCheckpointPhaseBegin/End).
enum class TraceCheckpointPhase : uint64_t {
  kFlushPages = 0,
  kSaveCatalog,
  kJournalCommit,
  kJournalApply,
  kSaveMeta,
  kWalTruncate,
};

/// Tier-migration phases (the arg word of kTierPhaseBegin/End), in the
/// order each atom type runs them; the fence's checkpoints emit their
/// own checkpoint phases.
enum class TraceTierPhase : uint64_t {
  kRelease = 0,  // versions leave the hot store
  kMigrate,      // the same versions become segments
};

/// The category bit an event type belongs to.
uint32_t TraceEventCategory(TraceEventType t);

/// Chrome trace_event phase of an event type: 'B' (span open),
/// 'E' (span close) or 'i' (instant).
char TraceEventPhase(TraceEventType t);

/// Display name of an event. Span-shaped types whose arg selects the
/// actual operator (kSpanBegin, kCheckpointPhaseBegin, ...) resolve the
/// name from `arg`, so a B and its E render identically.
const char* TraceEventName(TraceEventType t, uint64_t arg);

/// Index of a category bit into the per-category counter arrays
/// (0..kTraceCategoryCount-1; 0 if `cat_bit` is not a known bit).
int TraceCategoryIndex(uint32_t cat_bit);

}  // namespace tcob

#endif  // TCOB_COMMON_TRACE_EVENTS_H_
