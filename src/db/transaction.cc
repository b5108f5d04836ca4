#include "db/transaction.h"

#include "common/logging.h"
#include "db/database.h"

namespace tcob {

namespace {

/// Coerces a literal to the attribute's declared type (int -> double /
/// timestamp / id promotions; NULL re-typing).
Result<Value> Coerce(const Value& v, AttrType target) {
  if (v.is_null()) return Value::Null(target);
  if (v.type() == target) return v;
  if (v.type() == AttrType::kInt) {
    switch (target) {
      case AttrType::kDouble:
        return Value::Double(static_cast<double>(v.AsInt()));
      case AttrType::kTimestamp:
        return Value::Time(v.AsInt());
      case AttrType::kId:
        return Value::Id(static_cast<AtomId>(v.AsInt()));
      default:
        break;
    }
  }
  return Status::TypeError(std::string("cannot assign ") +
                           AttrTypeName(v.type()) + " to " +
                           AttrTypeName(target));
}

/// Coerces + positions named assignments against a type's schema;
/// `base` supplies carried-over values for partial updates (nullptr
/// means unlisted attributes become NULL).
Result<std::vector<Value>> ResolveAssignments(
    const AtomTypeDef& type,
    const std::vector<std::pair<std::string, Value>>& assignments,
    const std::vector<Value>* base) {
  std::vector<Value> out;
  out.reserve(type.attributes.size());
  if (base != nullptr) {
    out = *base;
  } else {
    for (const AttributeDef& attr : type.attributes) {
      out.push_back(Value::Null(attr.type));
    }
  }
  for (const auto& [name, value] : assignments) {
    int idx = type.AttrIndex(name);
    if (idx < 0) {
      return Status::InvalidArgument("unknown attribute " + type.name + "." +
                                     name);
    }
    TCOB_ASSIGN_OR_RETURN(out[idx],
                          Coerce(value, type.attributes[idx].type));
  }
  return out;
}

WalOp AtomOp(WalOpType type, const AtomTypeDef& def, AtomId id,
             Timestamp from, bool from_now) {
  WalOp op;
  op.type = type;
  op.stamped_now = from_now;
  op.atom_id = id;
  op.atom_type = def.id;
  op.valid_from = from;
  return op;
}

WalOp LinkOp(WalOpType type, const LinkTypeDef& link, AtomId from_id,
             AtomId to_id, Timestamp at, bool from_now) {
  WalOp op;
  op.type = type;
  op.stamped_now = from_now;
  op.link_type = link.id;
  op.from_id = from_id;
  op.to_id = to_id;
  op.valid_from = at;
  return op;
}

}  // namespace

Transaction::~Transaction() {
  if (active_) Abort();
}

Transaction::Transaction(Transaction&& other) noexcept
    : db_(other.db_),
      db_alive_(std::move(other.db_alive_)),
      txn_id_(other.txn_id_),
      snapshot_(other.snapshot_),
      snapshot_seq_(other.snapshot_seq_),
      local_now_(other.local_now_),
      active_(other.active_),
      ops_(std::move(other.ops_)),
      atoms_(std::move(other.atoms_)),
      links_(std::move(other.links_)) {
  // The moved-from shell must not abort (and unregister) the live
  // transaction from its destructor.
  other.active_ = false;
}

Status Transaction::CheckUsable() const {
  if (!active_) return Status::InvalidArgument("transaction not active");
  if (db_alive_.expired()) {
    return Status::FailedPrecondition(
        "transaction " + std::to_string(txn_id_) +
        " outlived its database; it can no longer be used");
  }
  return Status::OK();
}

void Transaction::Abort() {
  if (active_) {
    // Unregister from the conflict tracker — unless the database is
    // already gone, in which case the registry died with it.
    std::shared_ptr<void> alive = db_alive_.lock();
    if (alive != nullptr) db_->OnTxnAborted(txn_id_);
  }
  ops_.clear();
  atoms_.clear();
  links_.clear();
  active_ = false;
}

void Transaction::Buffer(WalOp op) {
  if (op.valid_from >= local_now_) local_now_ = op.valid_from + 1;
  ops_.push_back(std::move(op));
}

Status Transaction::ReadAsOfSnapshot(const AtomTypeDef& type, AtomId id,
                                     AtomOverlay* overlay) const {
  Result<std::optional<AtomVersion>> live =
      db_->store()->GetAsOf(type, id, snapshot_);
  if (!live.ok() && !live.status().IsNotFound()) return live.status();
  if (live.ok() && live.value().has_value()) {
    overlay->exists = true;
    overlay->live = true;
    overlay->live_begin = live.value()->valid.begin;
    overlay->attrs = std::move(live.value()->attrs);
    return Status::OK();
  }
  // Only the whole history tells an atom that is dead at the snapshot
  // from one whose first version began after it.
  Result<std::vector<AtomVersion>> versions =
      db_->store()->GetVersions(type, id, Interval::All());
  if (!versions.ok() && !versions.status().IsNotFound()) {
    return versions.status();
  }
  if (versions.ok()) {
    for (const AtomVersion& v : versions.value()) {
      if (v.valid.begin <= snapshot_) overlay->exists = true;
    }
  }
  return Status::OK();
}

Result<Transaction::AtomOverlay*> Transaction::OverlayFor(
    const AtomTypeDef& type, AtomId id) {
  const auto key = std::make_pair(type.id, id);
  auto it = atoms_.find(key);
  if (it != atoms_.end()) return &it->second;
  AtomOverlay overlay;
  std::shared_lock<std::shared_mutex> reading(db_->apply_mu_);
  // Snapshot read: the version valid at the snapshot instant. Versions
  // beginning after it were committed after Begin() and stay invisible;
  // one closed after it is still open as far as this transaction can
  // see (the closing writer wins the conflict check if we collide). The
  // newest version answers alone unless it began after the snapshot.
  Result<AtomVersion> newest = db_->store()->GetNewest(type, id);
  if (!newest.ok()) {
    if (!newest.status().IsNotFound()) return newest.status();
  } else if (newest->valid.Contains(snapshot_)) {
    overlay.exists = true;
    overlay.live = true;
    overlay.live_begin = newest->valid.begin;
    overlay.attrs = std::move(newest->attrs);
  } else if (newest->valid.begin <= snapshot_) {
    overlay.exists = true;  // dead at the snapshot
  } else {
    TCOB_RETURN_NOT_OK(ReadAsOfSnapshot(type, id, &overlay));
  }
  return &atoms_.emplace(key, std::move(overlay)).first->second;
}

Result<Transaction::LinkOverlay*> Transaction::LinkOverlayFor(
    const LinkTypeDef& link, AtomId from, AtomId to) {
  auto key = std::make_tuple(link.id, from, to);
  auto it = links_.find(key);
  if (it != links_.end()) return &it->second;
  LinkOverlay overlay;
  std::shared_lock<std::shared_mutex> reading(db_->apply_mu_);
  TCOB_ASSIGN_OR_RETURN(
      auto spans, db_->links()->NeighborsIn(link, from, /*forward=*/true,
                                            Interval::All()));
  for (const auto& [other, valid] : spans) {
    if (other != to) continue;
    // Same snapshot rule as atoms: intervals beginning after the
    // snapshot do not exist yet, and one closed after it is still open
    // from this transaction's viewpoint.
    if (valid.begin > snapshot_) continue;
    if (valid.open_ended() || valid.end > snapshot_) {
      overlay.open = true;
      overlay.open_begin = valid.begin;
    } else if (valid.end > overlay.last_end) {
      overlay.last_end = valid.end;
    }
  }
  return &links_.emplace(key, overlay).first->second;
}

Result<AtomId> Transaction::InsertAtom(
    const std::string& type_name,
    const std::vector<std::pair<std::string, Value>>& assignments,
    Timestamp from, bool from_now) {
  TCOB_RETURN_NOT_OK(CheckUsable());
  if (from_now) from = local_now_;
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                        db_->catalog().GetAtomTypeByName(type_name));
  TCOB_ASSIGN_OR_RETURN(std::vector<Value> values,
                        ResolveAssignments(*type, assignments, nullptr));
  AtomId id = db_->AllocateAtomId();
  AtomOverlay& overlay = atoms_[{type->id, id}];
  overlay.exists = true;
  overlay.live = true;
  overlay.live_begin = from;
  overlay.attrs = values;

  WalOp op = AtomOp(WalOpType::kInsertAtom, *type, id, from, from_now);
  op.attrs = std::move(values);
  Buffer(std::move(op));
  return id;
}

Status Transaction::UpdateAtom(
    const std::string& type_name, AtomId id,
    const std::vector<std::pair<std::string, Value>>& assignments,
    Timestamp from, bool from_now) {
  TCOB_RETURN_NOT_OK(CheckUsable());
  if (from_now) from = local_now_;
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                        db_->catalog().GetAtomTypeByName(type_name));
  TCOB_ASSIGN_OR_RETURN(AtomOverlay * overlay, OverlayFor(*type, id));
  if (!overlay->exists) {
    return Status::NotFound("update of unknown atom " + std::to_string(id));
  }
  if (!overlay->live) {
    return Status::InvalidArgument("update of a dead atom");
  }
  if (from <= overlay->live_begin) {
    return Status::InvalidArgument(
        "update must be after the live version's begin");
  }
  TCOB_ASSIGN_OR_RETURN(std::vector<Value> values,
                        ResolveAssignments(*type, assignments,
                                           &overlay->attrs));
  overlay->live_begin = from;
  overlay->attrs = values;

  WalOp op = AtomOp(WalOpType::kUpdateAtom, *type, id, from, from_now);
  op.attrs = std::move(values);
  Buffer(std::move(op));
  return Status::OK();
}

Status Transaction::DeleteAtom(const std::string& type_name, AtomId id,
                               Timestamp from, bool from_now) {
  TCOB_RETURN_NOT_OK(CheckUsable());
  if (from_now) from = local_now_;
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                        db_->catalog().GetAtomTypeByName(type_name));
  TCOB_ASSIGN_OR_RETURN(AtomOverlay * overlay, OverlayFor(*type, id));
  if (!overlay->exists) {
    return Status::NotFound("delete of unknown atom " + std::to_string(id));
  }
  if (!overlay->live) {
    return Status::InvalidArgument("delete of a dead atom");
  }
  if (from <= overlay->live_begin) {
    return Status::InvalidArgument(
        "delete must be after the live version's begin");
  }
  overlay->live = false;
  Buffer(AtomOp(WalOpType::kDeleteAtom, *type, id, from, from_now));
  return Status::OK();
}

Status Transaction::Connect(const std::string& link_name, AtomId from_id,
                            AtomId to_id, Timestamp at, bool from_now) {
  TCOB_RETURN_NOT_OK(CheckUsable());
  if (from_now) at = local_now_;
  TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                        db_->catalog().GetLinkTypeByName(link_name));
  TCOB_ASSIGN_OR_RETURN(LinkOverlay * overlay,
                        LinkOverlayFor(*link, from_id, to_id));
  if (overlay->open) {
    return Status::AlreadyExists("link already connected");
  }
  if (at < overlay->last_end) {
    return Status::InvalidArgument(
        "connect overlaps a previous connection interval");
  }
  overlay->open = true;
  overlay->open_begin = at;
  Buffer(LinkOp(WalOpType::kConnect, *link, from_id, to_id, at, from_now));
  return Status::OK();
}

Status Transaction::Disconnect(const std::string& link_name, AtomId from_id,
                               AtomId to_id, Timestamp at, bool from_now) {
  TCOB_RETURN_NOT_OK(CheckUsable());
  if (from_now) at = local_now_;
  TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                        db_->catalog().GetLinkTypeByName(link_name));
  TCOB_ASSIGN_OR_RETURN(LinkOverlay * overlay,
                        LinkOverlayFor(*link, from_id, to_id));
  if (!overlay->open) {
    return Status::NotFound("no open connection to disconnect");
  }
  if (at <= overlay->open_begin) {
    return Status::InvalidArgument("disconnect before the connection began");
  }
  overlay->open = false;
  overlay->last_end = at;
  Buffer(LinkOp(WalOpType::kDisconnect, *link, from_id, to_id, at, from_now));
  return Status::OK();
}

Status Transaction::Commit() {
  TCOB_RETURN_NOT_OK(CheckUsable());
  Status committed =
      db_->CommitBatch(txn_id_, std::move(ops_), snapshot_seq_);
  active_ = false;
  ops_.clear();
  atoms_.clear();
  links_.clear();
  return committed;
}

}  // namespace tcob
