#ifndef TCOB_DB_TRANSACTION_H_
#define TCOB_DB_TRANSACTION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "record/value.h"
#include "time/timestamp.h"
#include "wal/log_record.h"

namespace tcob {

class Database;

/// An explicit multi-statement transaction under snapshot isolation.
///
/// Begin() captures a snapshot: the valid-time instant just before the
/// NOW that the newest commit group published, and that group's commit
/// sequence. Operations are validated eagerly against that snapshot
/// (plus this transaction's own pending effects, via the overlays
/// below) and buffered; nothing touches the stores or the WAL until
/// Commit. VALID FROM NOW operations carry a provisional stamp from the
/// transaction-local clock while buffered and are re-stamped to the
/// commit instant by the commit group's leader, so a commit can never
/// land at or before a snapshot pinned while it was buffering.
///
/// Commit hands the buffer to the database's one commit pipeline
/// (Database::CommitBatch), which every write takes — auto-committed
/// statements are one-op transactions. It runs first-committer-wins
/// validation: if any transaction that committed after this snapshot
/// wrote an atom or link pair this transaction also writes, Commit
/// aborts with TxnConflict and the other writer's effects stand.
/// Otherwise the operations are logged (n records plus a commit record;
/// a single op is one self-committed record), made durable by one
/// fsync shared with the other batches of its commit group, and only
/// then applied. Abort discards the buffer without a trace.
///
/// Reads through the Database during an open transaction see committed
/// state only; SELECTs routed through the session transaction pin its
/// snapshot (concurrent commits stay invisible until this transaction
/// ends). The atom timelines themselves serve as the version chain —
/// a snapshot read is simply a time-slice at the snapshot instant.
///
/// A Transaction may outlive its Database: every operation on it then
/// fails with FailedPrecondition instead of touching freed memory.
///
/// Usage:
///   Transaction txn = db->Begin();
///   TCOB_ASSIGN_OR_RETURN(AtomId id, txn.InsertAtom("Emp", {...}, t));
///   TCOB_RETURN_NOT_OK(txn.Connect("DeptEmp", dept, id, t));
///   TCOB_RETURN_NOT_OK(txn.Commit());  // may return TxnConflict
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;
  /// Moves deactivate the source so only one of the pair aborts or
  /// unregisters on destruction.
  Transaction(Transaction&& other) noexcept;

  /// Buffers an insert; returns the atom id the insert will create.
  /// With `from_now`, `from` is ignored: the operation is stamped with
  /// the transaction-local clock (see local_now()) and re-stamped to
  /// the commit instant when the transaction commits.
  Result<AtomId> InsertAtom(
      const std::string& type_name,
      const std::vector<std::pair<std::string, Value>>& assignments,
      Timestamp from, bool from_now = false);

  /// Buffers a partial update (unlisted attributes carry over, seeing
  /// this transaction's own pending updates).
  Status UpdateAtom(const std::string& type_name, AtomId id,
                    const std::vector<std::pair<std::string, Value>>&
                        assignments,
                    Timestamp from, bool from_now = false);

  Status DeleteAtom(const std::string& type_name, AtomId id, Timestamp from,
                    bool from_now = false);

  Status Connect(const std::string& link_name, AtomId from_id, AtomId to_id,
                 Timestamp at, bool from_now = false);
  Status Disconnect(const std::string& link_name, AtomId from_id,
                    AtomId to_id, Timestamp at, bool from_now = false);

  /// Validates against commits since the snapshot (TxnConflict if a
  /// write-write overlap lost the race), then logs the buffered
  /// operations, makes them durable and applies them atomically. Win or
  /// lose, the transaction is finished afterwards.
  Status Commit();

  /// Discards the buffered operations.
  void Abort();

  bool active() const { return active_; }
  size_t pending_ops() const { return ops_.size(); }
  uint64_t id() const { return txn_id_; }

  /// The valid-time instant this transaction reads at: commits stamped
  /// after Begin() land strictly later and stay invisible.
  Timestamp snapshot() const { return snapshot_; }

  /// The transaction-local clock: the instant the next VALID FROM NOW
  /// operation buffered into this transaction will provisionally get.
  /// It starts just after the snapshot and advances like the database
  /// clock (a buffered stamp pulls it past itself), but is *pinned*
  /// against concurrent committers — the definitive stamps of the
  /// NOW-relative operations are assigned by the commit group's leader
  /// (see Database::CommitBatch).
  Timestamp local_now() const { return local_now_; }

 private:
  friend class Database;
  Transaction(Database* db, uint64_t txn_id, Timestamp snapshot,
              uint64_t snapshot_seq, std::weak_ptr<void> db_alive)
      : db_(db),
        db_alive_(std::move(db_alive)),
        txn_id_(txn_id),
        snapshot_(snapshot),
        snapshot_seq_(snapshot_seq),
        local_now_(snapshot + 1) {}

  /// Guards every operation: the transaction must still be active and
  /// the owning Database must still exist (FailedPrecondition after it
  /// was destroyed — a Transaction never dereferences a dead Database).
  Status CheckUsable() const;

  /// Pending per-atom view: what the atom will look like if this
  /// transaction commits. Lazily initialized from the committed state
  /// as of the snapshot.
  struct AtomOverlay {
    bool exists = false;  // has any version (committed or pending)
    bool live = false;
    Timestamp live_begin = kMinTimestamp;
    std::vector<Value> attrs;  // of the live version
  };

  /// Pending link-pair view.
  struct LinkOverlay {
    bool open = false;
    Timestamp open_begin = kMinTimestamp;
    Timestamp last_end = kMinTimestamp;
  };

  Result<AtomOverlay*> OverlayFor(const AtomTypeDef& type, AtomId id);
  /// OverlayFor's read when the newest version began after the snapshot:
  /// the version valid at the snapshot, else the whole history.
  Status ReadAsOfSnapshot(const AtomTypeDef& type, AtomId id,
                          AtomOverlay* overlay) const;
  Result<LinkOverlay*> LinkOverlayFor(const LinkTypeDef& link, AtomId from,
                                      AtomId to);

  /// Buffers `op` and pulls the transaction-local clock past its stamp
  /// (the per-transaction mirror of the commit clock's rule).
  void Buffer(WalOp op);

  Database* db_;
  /// Expires when the owning Database is destroyed; checked before
  /// every dereference of db_.
  std::weak_ptr<void> db_alive_;
  uint64_t txn_id_;
  Timestamp snapshot_ = kMinTimestamp;
  /// Commit sequence the snapshot covers (conflict-window lower bound).
  uint64_t snapshot_seq_ = 0;
  /// Provisional NOW for buffered operations (see local_now()).
  Timestamp local_now_ = kMinTimestamp;
  bool active_ = true;
  std::vector<WalOp> ops_;
  /// Keyed by (type, atom): a surrogate written under another type is
  /// unknown to this one, exactly as in the per-type stores.
  std::map<std::pair<TypeId, AtomId>, AtomOverlay> atoms_;
  std::map<std::tuple<LinkTypeId, AtomId, AtomId>, LinkOverlay> links_;
};

}  // namespace tcob

#endif  // TCOB_DB_TRANSACTION_H_
