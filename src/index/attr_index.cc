#include "index/attr_index.h"

#include <algorithm>

#include "common/coding.h"

namespace tcob {

std::string ValueRange::ToString() const {
  std::string out;
  if (lower.has_value()) {
    out += lower_inclusive ? "[" : "(";
    out += lower->ToString();
  } else {
    out += "(-inf";
  }
  out += " .. ";
  if (upper.has_value()) {
    out += upper->ToString();
    out += upper_inclusive ? "]" : ")";
  } else {
    out += "+inf)";
  }
  return out;
}

Result<BTree*> AttrIndexManager::TreeOf(IndexId id) const {
  std::lock_guard<std::mutex> lock(trees_mu_);
  auto it = trees_.find(id);
  if (it != trees_.end()) return it->second.get();
  TCOB_ASSIGN_OR_RETURN(
      std::unique_ptr<BTree> tree,
      BTree::Open(pool_, "attridx_" + std::to_string(id),
                  index_counters_));
  BTree* raw = tree.get();
  trees_[id] = std::move(tree);
  return raw;
}

Status AttrIndexManager::EncodeComparableValue(const Value& v,
                                               std::string* dst) {
  if (v.is_null()) {
    return Status::InvalidArgument("NULL values are not indexed");
  }
  switch (v.type()) {
    case AttrType::kBool:
      dst->push_back(v.AsBool() ? 1 : 0);
      return Status::OK();
    case AttrType::kInt:
      PutComparableI64(dst, v.AsInt());
      return Status::OK();
    case AttrType::kDouble:
      PutComparableDouble(dst, v.AsDouble());
      return Status::OK();
    case AttrType::kString:
      // Strings order bytewise; terminate with 0x00 so no encoded string
      // is a prefix of another entry's value part. (Embedded NULs are
      // therefore not supported in indexed strings.)
      dst->append(v.AsString());
      dst->push_back('\0');
      return Status::OK();
    case AttrType::kTimestamp:
      PutComparableI64(dst, v.AsTime());
      return Status::OK();
    case AttrType::kId:
      PutComparableU64(dst, v.AsId());
      return Status::OK();
  }
  return Status::Internal("unhandled value type");
}

Status AttrIndexManager::EncodeEntryKey(const Value& v, AtomId id,
                                        Timestamp begin, std::string* dst) {
  TCOB_RETURN_NOT_OK(EncodeComparableValue(v, dst));
  PutComparableU64(dst, id);
  PutComparableI64(dst, begin);
  return Status::OK();
}

Status AttrIndexManager::PutEntry(const AttrIndexDef& def, const Value& v,
                                  AtomId id, const Interval& valid) {
  if (v.is_null()) return Status::OK();  // NULLs are not indexed
  TCOB_ASSIGN_OR_RETURN(BTree * tree, TreeOf(def.id));
  std::string key;
  TCOB_RETURN_NOT_OK(EncodeEntryKey(v, id, valid.begin, &key));
  return tree->Put(key, static_cast<uint64_t>(valid.end));
}

Status AttrIndexManager::OnInsert(const AtomTypeDef& type, AtomId id,
                                  const std::vector<Value>& attrs,
                                  Timestamp from) {
  for (const AttrIndexDef* def : catalog_->AttrIndexesOf(type.id)) {
    if (def->attr_pos >= attrs.size()) continue;
    TCOB_RETURN_NOT_OK(
        PutEntry(*def, attrs[def->attr_pos], id, Interval(from, kForever)));
  }
  return Status::OK();
}

Status AttrIndexManager::OnUpdate(const AtomTypeDef& type, AtomId id,
                                  const AtomVersion& old_version,
                                  const std::vector<Value>& attrs,
                                  Timestamp from) {
  for (const AttrIndexDef* def : catalog_->AttrIndexesOf(type.id)) {
    if (def->attr_pos >= attrs.size()) continue;
    // Close the outgoing version's entry and open the successor's.
    TCOB_RETURN_NOT_OK(PutEntry(*def, old_version.attrs[def->attr_pos], id,
                                Interval(old_version.valid.begin, from)));
    TCOB_RETURN_NOT_OK(
        PutEntry(*def, attrs[def->attr_pos], id, Interval(from, kForever)));
  }
  return Status::OK();
}

Status AttrIndexManager::OnDelete(const AtomTypeDef& type, AtomId id,
                                  const AtomVersion& old_version,
                                  Timestamp from) {
  for (const AttrIndexDef* def : catalog_->AttrIndexesOf(type.id)) {
    TCOB_RETURN_NOT_OK(PutEntry(*def, old_version.attrs[def->attr_pos], id,
                                Interval(old_version.valid.begin, from)));
  }
  return Status::OK();
}

Status AttrIndexManager::Backfill(const AttrIndexDef& def,
                                  const AtomTypeDef& type,
                                  const TemporalAtomStore& store) {
  return store.ScanVersions(
      type, Interval::All(), [&](const AtomVersion& v) -> Result<bool> {
        TCOB_RETURN_NOT_OK(PutEntry(def, v.attrs[def.attr_pos], v.id, v.valid));
        return true;
      });
}

Result<std::vector<AtomId>> AttrIndexManager::LookupAsOf(
    const AttrIndexDef& def, const ValueRange& range, Timestamp t) const {
  TCOB_ASSIGN_OR_RETURN(BTree * tree, TreeOf(def.id));
  // Build the scan bounds over the value prefix.
  std::string lower;
  if (range.lower.has_value()) {
    TCOB_RETURN_NOT_OK(EncodeComparableValue(*range.lower, &lower));
    if (!range.lower_inclusive) {
      // Skip all entries with exactly this value: extend past the value
      // prefix with 0xFF filler beyond any (id, begin) suffix.
      lower.append(17, '\xff');
    }
  }
  std::string upper;
  if (range.upper.has_value()) {
    TCOB_RETURN_NOT_OK(EncodeComparableValue(*range.upper, &upper));
    if (range.upper_inclusive) {
      upper.append(17, '\xff');
    }
  }
  std::vector<AtomId> out;
  Status scan = tree->Scan(
      lower, upper, [&](const Slice& key, uint64_t end) -> Result<bool> {
        // Suffix layout: ... [id:8][begin:8]; the value part is whatever
        // precedes it.
        if (key.size() < 16) return Status::Corruption("short index key");
        const char* suffix = key.data() + key.size() - 16;
        AtomId id = DecodeComparableU64(suffix);
        Timestamp begin = DecodeComparableI64(suffix + 8);
        Timestamp end_ts = static_cast<Timestamp>(end);
        if (begin <= t && t < end_ts) out.push_back(id);
        return true;
      });
  TCOB_RETURN_NOT_OK(scan);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<uint64_t> AttrIndexManager::VacuumBefore(Timestamp cutoff) {
  uint64_t removed = 0;
  for (const AttrIndexDef* def : catalog_->AttrIndexes()) {
    TCOB_ASSIGN_OR_RETURN(BTree * tree, TreeOf(def->id));
    std::vector<std::string> victims;
    TCOB_RETURN_NOT_OK(tree->Scan(
        Slice(""), Slice(),
        [&](const Slice& key, uint64_t end) -> Result<bool> {
          if (static_cast<Timestamp>(end) <= cutoff) {
            victims.push_back(key.ToString());
          }
          return true;
        }));
    for (const std::string& key : victims) {
      TCOB_RETURN_NOT_OK(tree->Delete(key));
      ++removed;
    }
  }
  return removed;
}

Status AttrIndexManager::VerifyStructure() const {
  for (const AttrIndexDef* def : catalog_->AttrIndexes()) {
    TCOB_ASSIGN_OR_RETURN(BTree * tree, TreeOf(def->id));
    Status s = tree->VerifyStructure();
    if (!s.ok()) {
      return Status::Corruption("attribute index " + def->name + ": " +
                                s.message());
    }
  }
  return Status::OK();
}

Result<uint64_t> AttrIndexManager::TotalPages() const {
  std::lock_guard<std::mutex> lock(trees_mu_);
  uint64_t pages = 0;
  for (const auto& [id, tree] : trees_) {
    (void)id;
    TCOB_ASSIGN_OR_RETURN(PageNo n, pool_->disk()->NumPages(tree->file_id()));
    pages += n;
  }
  return pages;
}

}  // namespace tcob
