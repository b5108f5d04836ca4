#ifndef TCOB_TSTORE_TEMPORAL_STORE_H_
#define TCOB_TSTORE_TEMPORAL_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/slice.h"
#include "record/value.h"
#include "time/interval.h"
#include "time/timeline.h"

namespace tcob {

/// One state of an atom: its attribute values stamped with the interval
/// during which they were valid.
struct AtomVersion {
  AtomId id = kInvalidAtomId;
  TypeId type = kInvalidTypeId;
  uint32_t version_no = 0;  // 1-based, per atom, monotonically increasing
  Interval valid;
  std::vector<Value> attrs;
};

/// Physical design alternatives for atom histories (the paper's subject).
enum class StorageStrategy {
  /// Baseline: every version is an independent full record in one heap;
  /// time selection scans an atom's versions linearly.
  kSnapshot,
  /// All versions of an atom clustered into one growing record ("version
  /// cluster"), spilling to overflow pages as the history grows.
  kIntegrated,
  /// Current store (exactly the live versions) + append-only history
  /// store with newest-to-oldest version chains.
  kSeparated,
};

const char* StorageStrategyName(StorageStrategy s);
Result<StorageStrategy> StorageStrategyFromName(const std::string& name);

/// Tuning knobs shared by the store implementations.
struct StoreOptions {
  /// kSeparated only: maintain a persistent (atom, begin) -> history-RID
  /// directory so past time slices use a logarithmic lookup instead of
  /// walking the version chain. Fig. 10 ablates this.
  bool separated_version_index = true;
};

/// Space accounting of one store (all atom types).
struct StoreSpaceStats {
  uint64_t heap_pages = 0;
  uint64_t index_pages = 0;
  uint64_t total_bytes = 0;
  uint64_t atom_count = 0;
  uint64_t version_count = 0;
};

/// Logical read-access accounting of one store (monotonic counters, like
/// BufferPoolStats). Each counted call is one storage round-trip — index
/// probes, page fetches, record decodes — so query-layer caches aim to
/// minimize exactly these numbers.
struct StoreAccessStats {
  uint64_t get_as_of = 0;
  uint64_t get_versions = 0;
  uint64_t scan_as_of = 0;
  uint64_t scan_versions = 0;

  uint64_t Total() const {
    return get_as_of + get_versions + scan_as_of + scan_versions;
  }

  /// Delta between two snapshots of the same monotonic counters
  /// (EXPLAIN ANALYZE attributes per-query accesses this way).
  StoreAccessStats& operator-=(const StoreAccessStats& o) {
    get_as_of -= o.get_as_of;
    get_versions -= o.get_versions;
    scan_as_of -= o.scan_as_of;
    scan_versions -= o.scan_versions;
    return *this;
  }
};

class ColdTier;

/// Read-access accounting of the cold-history tier (monotonic counters;
/// deltas feed the EXPLAIN ANALYZE tiering span). Zero when no cold
/// tier is attached.
struct ColdTierAccessStats {
  uint64_t segments_pruned = 0;   // skipped via fence / atom-range test
  uint64_t segments_scanned = 0;  // payload actually decoded
  uint64_t cold_versions = 0;     // versions materialized from segments

  ColdTierAccessStats& operator-=(const ColdTierAccessStats& o) {
    segments_pruned -= o.segments_pruned;
    segments_scanned -= o.segments_scanned;
    cold_versions -= o.cold_versions;
    return *this;
  }
};

/// Storage-strategy-independent interface over versioned atoms.
///
/// Mutation contract (shared by all implementations):
///  * Insert creates version 1 valid in [from, forever).
///  * Update closes the current version at `from` and opens a successor
///    valid in [from, forever). `from` must be strictly after the current
///    version's begin.
///  * Delete closes the current version at `from`, leaving the atom with
///    no live version (it may be re-inserted later, resuming its history).
///
/// Each mutation is applied exactly once: recovery skips every WAL
/// record below the checkpoint's op_seq watermark, and every operation
/// is validated before it is logged. A repeat is refused like any other
/// operation that does not apply cleanly, and changes nothing. The
/// checks look only at the newest version: a mutation reads no history
/// beyond what it rewrites and never touches the cold tier.
class TemporalAtomStore {
 public:
  using VersionCallback =
      std::function<Result<bool>(const AtomVersion&)>;

  virtual ~TemporalAtomStore() = default;

  virtual StorageStrategy strategy() const = 0;

  virtual Status Insert(const AtomTypeDef& type, AtomId id,
                        std::vector<Value> attrs, Timestamp from) = 0;
  virtual Status Update(const AtomTypeDef& type, AtomId id,
                        std::vector<Value> attrs, Timestamp from) = 0;
  virtual Status Delete(const AtomTypeDef& type, AtomId id,
                        Timestamp from) = 0;

  /// The version of atom `id` valid at `t`, or nullopt if the atom did
  /// not exist then. NotFound only if the atom was never inserted.
  Result<std::optional<AtomVersion>> GetAsOf(const AtomTypeDef& type,
                                             AtomId id, Timestamp t) const {
    get_as_of_.Increment();
    return DoGetAsOf(type, id, t);
  }

  /// All versions of `id` overlapping `window`, in time order.
  Result<std::vector<AtomVersion>> GetVersions(const AtomTypeDef& type,
                                               AtomId id,
                                               const Interval& window) const {
    get_versions_.Increment();
    return DoGetVersions(type, id, window);
  }

  /// The newest version of `id`, live or closed, for write validation:
  /// one index probe on snapshot storage, the cluster's last entry on
  /// integrated storage, the current record (plus the chain head when
  /// the atom is dead) on separated storage. NotFound only if the atom
  /// was never inserted. Not counted in access_stats(), which meters
  /// reads.
  virtual Result<AtomVersion> GetNewest(const AtomTypeDef& type,
                                        AtomId id) const = 0;

  /// Streams the version of *every* atom of `type` valid at `t`.
  Status ScanAsOf(const AtomTypeDef& type, Timestamp t,
                  const VersionCallback& fn) const {
    scan_as_of_.Increment();
    return DoScanAsOf(type, t, fn);
  }

  /// Streams every version of every atom of `type` overlapping `window`.
  Status ScanVersions(const AtomTypeDef& type, const Interval& window,
                      const VersionCallback& fn) const {
    scan_versions_.Increment();
    return DoScanVersions(type, window, fn);
  }

  /// Snapshot of the cumulative read-access counters (see
  /// StoreAccessStats). The counters are bookkeeping, not state: they are
  /// relaxed atomics incremented by concurrent readers, and resetting
  /// them is a const operation so benchmarks can meter individual query
  /// phases against a const store — safely even while readers run.
  StoreAccessStats access_stats() const {
    StoreAccessStats s;
    s.get_as_of = get_as_of_.value();
    s.get_versions = get_versions_.value();
    s.scan_as_of = scan_as_of_.value();
    s.scan_versions = scan_versions_.value();
    return s;
  }
  void ResetAccessStats() const {
    get_as_of_.Reset();
    get_versions_.Reset();
    scan_as_of_.Reset();
    scan_versions_.Reset();
  }

  /// Publishes the access counters into `registry` under tcob_store_*.
  void RegisterMetrics(MetricsRegistry* registry) const {
    registry->RegisterCounter("tcob_store_get_as_of_total", &get_as_of_);
    registry->RegisterCounter("tcob_store_get_versions_total", &get_versions_);
    registry->RegisterCounter("tcob_store_scan_as_of_total", &scan_as_of_);
    registry->RegisterCounter("tcob_store_scan_versions_total",
                              &scan_versions_);
  }

  virtual Result<StoreSpaceStats> SpaceStats() const = 0;

  /// Structural self-check of the physical state backing `type`: every
  /// version interval must be well-formed (begin < end) and each atom's
  /// versions must form a non-overlapping timeline; then the strategy's
  /// VerifyStructure validates its B+-trees and record plumbing.
  /// Read-only; returns Corruption describing the first violation.
  Status VerifyIntegrity(const AtomTypeDef& type) const;

  /// Strategy-specific structural checks behind VerifyIntegrity (B+-tree
  /// invariants, index-to-heap resolution). Default: nothing to check.
  virtual Status VerifyStructure(const AtomTypeDef& type) const {
    (void)type;
    return Status::OK();
  }

  /// The one physical reclamation primitive, behind both VACUUM and cold
  /// migration: drops each atom's oldest versions whose validity ended
  /// at or before `cutoff` (versions overlapping the cutoff stay). With
  /// `keep_anchor`, an atom whose versions would all go keeps its newest
  /// one (the anchor rule — the hot store never forgets a migrated atom,
  /// so id allocation, version numbering and NotFound semantics are
  /// identical with and without tiering); without it, such an atom is
  /// forgotten. When `removed` is non-null the dropped versions are
  /// appended to it, per atom in ascending begin order. Touches only the
  /// hot store. Returns the number of versions dropped. A physical
  /// reorganization, not a logged operation: the Database runs it inside
  /// a checkpoint fence so WAL replay never observes it.
  virtual Result<uint64_t> RemoveClosedPrefix(
      const AtomTypeDef& type, Timestamp cutoff, bool keep_anchor,
      std::map<AtomId, std::vector<AtomVersion>>* removed) = 0;

  // ---- cold-history tiering ----

  /// Attaches the cold tier. Afterwards every public read transparently
  /// merges hot store + cold segments in timeline order; mutations and
  /// NotFound semantics are unaffected (the anchor rule keeps at least
  /// one version of every migrated atom hot).
  void AttachColdTier(ColdTier* cold) { cold_ = cold; }
  ColdTier* cold_tier() const { return cold_; }

  /// Snapshot of the attached tier's read counters (zeros when none).
  ColdTierAccessStats cold_access_stats() const;

 protected:
  /// Number of leading versions of a begin-sorted, non-overlapping chain
  /// that RemoveClosedPrefix drops: the versions ended at or before
  /// `cutoff` (closed versions form a prefix), less the newest one when
  /// `keep_anchor` holds and the whole chain qualifies.
  static size_t ClosedPrefixLength(const std::vector<AtomVersion>& versions,
                                   Timestamp cutoff, bool keep_anchor);

  // Cold-tier read helpers for the strategy implementations; all are
  // no-ops (empty / false) when no tier is attached. Implemented in the
  // .cc against the full ColdTier type.
  bool has_cold() const { return cold_ != nullptr; }
  Result<std::vector<AtomVersion>> ColdVersions(const AtomTypeDef& type,
                                                AtomId id,
                                                const Interval& window) const;
  Status ColdCollectAll(const AtomTypeDef& type, const Interval& window,
                        std::map<AtomId, std::vector<AtomVersion>>* out) const;

 protected:
  /// Strategy-specific read paths behind the counting wrappers above.
  virtual Result<std::optional<AtomVersion>> DoGetAsOf(const AtomTypeDef& type,
                                                       AtomId id,
                                                       Timestamp t) const = 0;
  virtual Result<std::vector<AtomVersion>> DoGetVersions(
      const AtomTypeDef& type, AtomId id, const Interval& window) const = 0;
  virtual Status DoScanAsOf(const AtomTypeDef& type, Timestamp t,
                            const VersionCallback& fn) const = 0;
  virtual Status DoScanVersions(const AtomTypeDef& type,
                                const Interval& window,
                                const VersionCallback& fn) const = 0;

 private:
  ColdTier* cold_ = nullptr;

  // Relaxed-atomic Counters (see common/metrics.h): concurrent fan-out
  // readers bump them lock-free and totals stay exact.
  mutable Counter get_as_of_;
  mutable Counter get_versions_;
  mutable Counter scan_as_of_;
  mutable Counter scan_versions_;
};

// ---- shared record codecs ----

/// Full per-version record: [id][type][version_no][begin][end][attrs].
Status EncodeAtomVersion(const std::vector<AttrType>& schema,
                         const AtomVersion& v, std::string* dst);
Result<AtomVersion> DecodeAtomVersion(const std::vector<AttrType>& schema,
                                      Slice* input);

/// Builds a VersionTimeline (payload = index) over a version list sorted
/// by begin. Fails on overlapping versions.
Result<VersionTimeline> TimelineOf(const std::vector<AtomVersion>& versions);

}  // namespace tcob

#endif  // TCOB_TSTORE_TEMPORAL_STORE_H_
