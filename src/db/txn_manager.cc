#include "db/txn_manager.h"

#include <algorithm>
#include <string>

namespace tcob {

TxnWriteKey WriteKeyForOp(const WalOp& op) {
  TxnWriteKey key;
  switch (op.type) {
    case WalOpType::kInsertAtom:
    case WalOpType::kUpdateAtom:
    case WalOpType::kDeleteAtom:
      key.kind = TxnWriteKey::Kind::kAtom;
      key.a = op.atom_id;
      return key;
    case WalOpType::kConnect:
    case WalOpType::kDisconnect:
      key.kind = TxnWriteKey::Kind::kLink;
      key.a = op.link_type;
      key.b = op.from_id;
      key.c = op.to_id;
      return key;
    case WalOpType::kCommit:
    case WalOpType::kCheckpoint:
      break;
  }
  return key;
}

Status WriteConflict(const TxnWriteKey& key) {
  const char* what =
      key.kind == TxnWriteKey::Kind::kAtom ? "atom " : "link type ";
  return Status::TxnConflict("write-write conflict on " + std::string(what) +
                             std::to_string(key.a) +
                             " committed after this transaction's snapshot");
}

TxnSnapshot TxnManager::BeginTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lk(mu_);
  const TxnSnapshot pinned{now_.load(std::memory_order_relaxed) - 1,
                           commit_seq_};
  active_[txn_id] = pinned;
  return pinned;
}

void TxnManager::EndTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lk(mu_);
  active_.erase(txn_id);
  PruneLocked();
}

Status TxnManager::CheckConflict(
    uint64_t snapshot_seq, const std::vector<TxnWriteKey>& keys) const {
  std::lock_guard<std::mutex> lk(mu_);
  // The log is ascending by seq and pruned to the oldest active
  // snapshot, so scan backwards and stop at the snapshot horizon.
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->seq <= snapshot_seq) break;
    for (const TxnWriteKey& mine : keys) {
      if (std::binary_search(it->keys.begin(), it->keys.end(), mine)) {
        return WriteConflict(mine);
      }
    }
  }
  return Status::OK();
}

Status TxnManager::CheckNoSnapshotBefore(Timestamp cutoff) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [id, snap] : active_) {
    if (snap.instant < cutoff) {
      return Status::FailedPrecondition(
          "transaction " + std::to_string(id) + " reads at instant " +
          std::to_string(snap.instant) +
          ", before the vacuum cutoff " + std::to_string(cutoff) +
          "; commit or abort it first");
    }
  }
  return Status::OK();
}

void TxnManager::Publish(Timestamp now, std::vector<TxnOutcome>* outcomes) {
  std::lock_guard<std::mutex> lk(mu_);
  for (TxnOutcome& outcome : *outcomes) {
    active_.erase(outcome.txn_id);
    if (!outcome.committed) continue;
    const uint64_t seq = ++commit_seq_;
    // Write-sets are only conflict sources while a transaction with an
    // older snapshot is still open.
    if (!active_.empty()) {
      std::sort(outcome.keys.begin(), outcome.keys.end());
      log_.push_back(CommitEntry{seq, std::move(outcome.keys)});
    }
  }
  PruneLocked();
  AdvanceNowLocked(now);
}

void TxnManager::AdvanceNow(Timestamp t) {
  std::lock_guard<std::mutex> lk(mu_);
  AdvanceNowLocked(t);
}

void TxnManager::AdvanceNowLocked(Timestamp t) {
  if (t > now_.load(std::memory_order_relaxed)) {
    now_.store(t, std::memory_order_release);
  }
}

size_t TxnManager::active_txns() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_.size();
}

void TxnManager::PruneLocked() {
  if (active_.empty()) {
    log_.clear();
    return;
  }
  uint64_t oldest = active_.begin()->second.seq;
  for (const auto& [id, snap] : active_) oldest = std::min(oldest, snap.seq);
  // An entry at or below every active snapshot is visible to all of
  // them and can never conflict again.
  while (!log_.empty() && log_.front().seq <= oldest) log_.pop_front();
}

}  // namespace tcob
