#ifndef TCOB_DB_TXN_MANAGER_H_
#define TCOB_DB_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "time/timestamp.h"
#include "wal/log_record.h"

namespace tcob {

/// One mutated entity — the unit of write-write conflict detection
/// under snapshot isolation. Atoms conflict on their surrogate id,
/// link pairs on the (link type, from, to) triple.
struct TxnWriteKey {
  enum class Kind : uint8_t { kAtom = 0, kLink = 1 };
  Kind kind = Kind::kAtom;
  uint64_t a = 0;  // atom id, or link type id
  uint64_t b = 0;  // link from id
  uint64_t c = 0;  // link to id

  bool operator<(const TxnWriteKey& o) const {
    return std::tie(kind, a, b, c) < std::tie(o.kind, o.a, o.b, o.c);
  }
  bool operator==(const TxnWriteKey& o) const {
    return kind == o.kind && a == o.a && b == o.b && c == o.c;
  }
};

/// The conflict key of one logged operation (kCommit/kCheckpoint
/// records carry no key and must not be passed here).
TxnWriteKey WriteKeyForOp(const WalOp& op);

/// The TxnConflict status of a first-committer-wins loss on `key`.
Status WriteConflict(const TxnWriteKey& key);

/// What a transaction pins at Begin(): the valid-time instant it reads
/// at — the chronon just before the NOW that the newest commit group
/// published — and that group's commit sequence.
struct TxnSnapshot {
  Timestamp instant = 0;
  uint64_t seq = 0;
};

/// One transaction's fate in a published commit group.
struct TxnOutcome {
  uint64_t txn_id = 0;
  bool committed = false;
  std::vector<TxnWriteKey> keys;
};

/// Snapshot-isolation bookkeeping for the Database: the valid-time
/// clock and the commit sequence (published together by each commit
/// group), the set of active transactions with the pair each one
/// pinned, and a pruned log of committed write-sets used for
/// first-committer-wins validation.
///
/// A transaction beginning at commit sequence S conflicts with exactly
/// the commits sequenced after S that wrote a key it also writes; the
/// first committer wins and the later one aborts with TxnConflict.
/// Auto-committed statements are one-op transactions, so an open
/// transaction cannot silently overwrite one.
///
/// Thread-safe: every method takes an internal mutex except now(),
/// which is a lock-free load for readers.
class TxnManager {
 public:
  /// Registers `txn_id` as active; returns the snapshot it pins (every
  /// commit up to and including `seq` is visible).
  TxnSnapshot BeginTxn(uint64_t txn_id);

  /// Unregisters `txn_id` (abort, or a write-free commit) and prunes
  /// log entries no remaining snapshot can reach.
  void EndTxn(uint64_t txn_id);

  /// First-committer-wins validation: TxnConflict iff any commit
  /// sequenced after `snapshot_seq` wrote one of `keys`.
  Status CheckConflict(uint64_t snapshot_seq,
                       const std::vector<TxnWriteKey>& keys) const;

  /// FailedPrecondition naming an active transaction whose snapshot
  /// instant lies before `cutoff` — vacuuming before `cutoff` would
  /// remove versions that snapshot still reads; OK when there is none.
  Status CheckNoSnapshotBefore(Timestamp cutoff) const;

  /// Publishes one commit group: records the write-set of every
  /// committed member in group order (one commit sequence each),
  /// unregisters every member, and advances NOW to `now` — under one
  /// lock, so BeginTxn pins the whole group or none of it.
  void Publish(Timestamp now, std::vector<TxnOutcome>* outcomes);

  /// The valid-time NOW (lock-free; see Database::Now()).
  Timestamp now() const { return now_.load(std::memory_order_acquire); }
  /// Moves NOW forward to `t`; never backwards (see Database::SetNow).
  void AdvanceNow(Timestamp t);

  /// Number of currently registered transactions.
  size_t active_txns() const;

 private:
  /// One validated commit: its sequence and what it wrote (sorted).
  struct CommitEntry {
    uint64_t seq = 0;
    std::vector<TxnWriteKey> keys;
  };

  void PruneLocked();
  void AdvanceNowLocked(Timestamp t);

  mutable std::mutex mu_;
  /// Written only under mu_, so a BeginTxn pins a matching pair.
  std::atomic<Timestamp> now_{1};
  uint64_t commit_seq_ = 0;
  /// txn id -> the snapshot it pinned.
  std::map<uint64_t, TxnSnapshot> active_;
  /// Committed write-sets, ascending by seq; pruned to the oldest
  /// active snapshot.
  std::deque<CommitEntry> log_;
};

}  // namespace tcob

#endif  // TCOB_DB_TXN_MANAGER_H_
