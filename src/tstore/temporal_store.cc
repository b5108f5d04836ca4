#include "tstore/temporal_store.h"

#include <algorithm>
#include <map>

#include "common/coding.h"
#include "record/record_codec.h"
#include "tstore/cold_tier.h"

namespace tcob {

const char* StorageStrategyName(StorageStrategy s) {
  switch (s) {
    case StorageStrategy::kSnapshot:
      return "snapshot";
    case StorageStrategy::kIntegrated:
      return "integrated";
    case StorageStrategy::kSeparated:
      return "separated";
  }
  return "?";
}

Result<StorageStrategy> StorageStrategyFromName(const std::string& name) {
  if (name == "snapshot") return StorageStrategy::kSnapshot;
  if (name == "integrated") return StorageStrategy::kIntegrated;
  if (name == "separated") return StorageStrategy::kSeparated;
  return Status::InvalidArgument("unknown storage strategy: " + name);
}

Status EncodeAtomVersion(const std::vector<AttrType>& schema,
                         const AtomVersion& v, std::string* dst) {
  PutVarint64(dst, v.id);
  PutVarint32(dst, v.type);
  PutVarint32(dst, v.version_no);
  PutVarsint64(dst, v.valid.begin);
  PutVarsint64(dst, v.valid.end);
  return EncodeValues(schema, v.attrs, dst);
}

Result<AtomVersion> DecodeAtomVersion(const std::vector<AttrType>& schema,
                                      Slice* input) {
  AtomVersion v;
  TCOB_RETURN_NOT_OK(GetVarint64(input, &v.id));
  TCOB_RETURN_NOT_OK(GetVarint32(input, &v.type));
  TCOB_RETURN_NOT_OK(GetVarint32(input, &v.version_no));
  TCOB_RETURN_NOT_OK(GetVarsint64(input, &v.valid.begin));
  TCOB_RETURN_NOT_OK(GetVarsint64(input, &v.valid.end));
  TCOB_ASSIGN_OR_RETURN(v.attrs, DecodeValues(schema, input));
  return v;
}

ColdTierAccessStats TemporalAtomStore::cold_access_stats() const {
  return cold_ ? cold_->access_stats() : ColdTierAccessStats{};
}

size_t TemporalAtomStore::ClosedPrefixLength(
    const std::vector<AtomVersion>& versions, Timestamp cutoff,
    bool keep_anchor) {
  size_t n = 0;
  while (n < versions.size() && !versions[n].valid.open_ended() &&
         versions[n].valid.end <= cutoff) {
    ++n;
  }
  // Anchor rule: a fully-historical atom keeps its newest version.
  if (keep_anchor && n == versions.size() && n > 0) --n;
  return n;
}

Result<std::vector<AtomVersion>> TemporalAtomStore::ColdVersions(
    const AtomTypeDef& type, AtomId id, const Interval& window) const {
  if (!cold_) return std::vector<AtomVersion>{};
  return cold_->VersionsOf(type, id, window);
}

Status TemporalAtomStore::ColdCollectAll(
    const AtomTypeDef& type, const Interval& window,
    std::map<AtomId, std::vector<AtomVersion>>* out) const {
  if (!cold_) return Status::OK();
  return cold_->CollectAll(type, window, out);
}

Status TemporalAtomStore::VerifyIntegrity(const AtomTypeDef& type) const {
  auto corrupt = [&](AtomId id, const std::string& what) {
    return Status::Corruption("atom " + std::to_string(id) + " of type " +
                              type.name + ": " + what);
  };
  // Cold versions per atom, for the anchor rule: every atom with cold
  // history must keep at least one hot (or live) version.
  std::map<AtomId, size_t> cold_counts;
  if (cold_ != nullptr) {
    std::map<AtomId, std::vector<AtomVersion>> cold_atoms;
    TCOB_RETURN_NOT_OK(cold_->CollectAll(type, Interval::All(), &cold_atoms));
    for (const auto& [id, versions] : cold_atoms) {
      cold_counts[id] = versions.size();
    }
  }
  // DoScanVersions merges the tiers and yields each atom's versions
  // together, in ascending atom id, so one atom's history is checked
  // (and held) at a time. Cross-tier overlap — e.g. a version written to
  // a segment but still in the hot store — appears twice and TimelineOf
  // catches it.
  std::vector<AtomVersion> versions;
  auto check_atom = [&]() -> Status {
    if (versions.empty()) return Status::OK();
    const AtomId id = versions.front().id;
    auto cold = cold_counts.find(id);
    if (cold != cold_counts.end()) {
      if (versions.size() <= cold->second) {
        return corrupt(id, "cold versions without a hot anchor");
      }
      cold_counts.erase(cold);
    }
    for (const AtomVersion& v : versions) {
      if (v.valid.empty()) {
        return corrupt(id, "empty version interval " + v.valid.ToString());
      }
    }
    Result<VersionTimeline> timeline = TimelineOf(versions);
    if (!timeline.ok()) return corrupt(id, timeline.status().message());
    versions.clear();
    return Status::OK();
  };
  TCOB_RETURN_NOT_OK(DoScanVersions(
      type, Interval::All(), [&](const AtomVersion& v) -> Result<bool> {
        if (!versions.empty() && v.id != versions.front().id) {
          if (v.id < versions.front().id) {
            return corrupt(v.id, "versions out of atom order");
          }
          TCOB_RETURN_NOT_OK(check_atom());
        }
        versions.push_back(v);
        return true;
      }));
  TCOB_RETURN_NOT_OK(check_atom());
  if (cold_ != nullptr) {
    TCOB_RETURN_NOT_OK(cold_->VerifyIntegrity(type));
    if (!cold_counts.empty()) {
      return corrupt(cold_counts.begin()->first,
                     "cold versions without a hot anchor");
    }
  }
  return VerifyStructure(type);
}

Result<VersionTimeline> TimelineOf(const std::vector<AtomVersion>& versions) {
  std::vector<size_t> order(versions.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return versions[a].valid.begin < versions[b].valid.begin;
  });
  VersionTimeline timeline;
  for (size_t idx : order) {
    TCOB_RETURN_NOT_OK(timeline.Append(versions[idx].valid, idx));
  }
  return timeline;
}

}  // namespace tcob
