#ifndef TCOB_MAD_MATERIALIZER_H_
#define TCOB_MAD_MATERIALIZER_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "common/cancellation.h"
#include "common/resource_budget.h"
#include "common/thread_pool.h"
#include "mad/link_store.h"
#include "mad/molecule.h"
#include "mad/version_cache.h"
#include "tstore/temporal_store.h"

namespace tcob {

class Materializer;

/// What one root step yields: the root's molecule at the stream's
/// instant (as-of streams) or its states across the window (history
/// streams). The other member stays empty.
struct RootResult {
  Molecule molecule;
  MoleculeHistory history;
};

/// Resumable walk over one statement's roots — the single root loop
/// behind every all-roots operator. Each Next() materializes exactly one
/// root, so a caller pulling rows advances the query one molecule (or
/// one history) at a time on its own thread.
///
/// The roots are fixed when the stream opens (an index probe, or one
/// ScanAsOf / ScanVersions pass collecting them in scan order). Serially,
/// one query-scoped VersionCache lives in the stream between steps, so a
/// sub-object shared by many molecules is fetched once; governance is
/// checked per root, and under budget pressure the cache is dropped
/// between roots. With a ThreadPool of more than one worker and more than
/// one root, the roots fan out interleaved — root i to worker i mod W,
/// each worker building against a private cache into a bounded channel —
/// and Next() pops channel i mod W, so items arrive in root order with
/// the serial path's output and errors: a worker stops at its first real
/// error, the others finish their roots, and the first error in root
/// order is reported. Workers run ahead only as far as their channels
/// allow, so buffered items stay bounded by workers x channel capacity.
///
/// Between Next() calls the calling thread holds no page pin or latch
/// (the cache holds decoded copies). Destroying the stream stops and
/// joins its workers and folds its cache stats and worker timings into
/// the materializer (cache_stats(), last_worker_micros()). The stream
/// must not outlive the materializer, the molecule type it was opened
/// with, or the governance scope.
class RootStream {
 public:
  ~RootStream();

  RootStream(const RootStream&) = delete;
  RootStream& operator=(const RootStream&) = delete;

  /// Materializes the next root into `*out`: ok(true) = filled,
  /// ok(false) = every root has been stepped. Roots the operator skips
  /// (index false positives, histories with no state in the window) are
  /// passed over within the same call. An error ends the stream; later
  /// calls repeat it.
  Result<bool> Next(RootResult* out);

 private:
  friend class Materializer;
  class FanOut;

  RootStream(const Materializer* mat, const MoleculeTypeDef& type,
             std::vector<AtomId> roots, bool history, Timestamp t,
             const Interval& window, bool skip_not_found);

  /// The per-root body of the serial loop and the fan-out workers alike:
  /// governance check, budget-pressure cache drop (its stats go to
  /// `*dropped`), then root `i` built against `cache`.
  Result<RootResult> BuildGoverned(size_t i, VersionCache* cache,
                                   VersionCacheStats* dropped) const;

  /// True when `r` is a root the operator passes over silently.
  bool Skipped(const Result<RootResult>& r) const;

  /// Ends the stream with `status` (draining the fan-out, so work
  /// counters stay deterministic) and returns it.
  Status Fail(Status status);

  /// Stops the fan-out (draining it when `drain`, aborting it otherwise)
  /// and folds stats into the materializer. Idempotent.
  void Finish(bool drain);

  const Materializer* mat_;
  const MoleculeTypeDef& type_;
  const std::vector<AtomId> roots_;
  const bool history_;
  const Timestamp t_;       // as-of instant (as-of streams)
  const Interval window_;   // history window, or [t, t+1) for as-of
  const bool skip_not_found_;
  size_t next_ = 0;
  bool finished_ = false;
  Status error_ = Status::OK();
  std::optional<VersionCache> cache_;  // serial path only
  std::unique_ptr<FanOut> fanout_;
};

/// Builds molecules out of the atom and link networks — the dynamic
/// complex-object construction at the heart of the model.
///
/// Materialization is a breadth-first fixpoint over the molecule type's
/// edge list: starting from the root atom, every edge is traversed from
/// every already-collected atom of its source type, adding the partners
/// that are valid at the query instant. Cyclic type graphs terminate
/// because the atom set grows monotonically.
///
/// History and time-slice operators run against a query-scoped
/// VersionCache: each reachable atom's decoded version list is pinned
/// once, and History() sweeps the precomputed timelines instead of
/// re-materializing from the store at every change point (which costs
/// O(change points x atoms) store accesses — see NaiveHistory, kept as
/// the reference implementation).
///
/// The all-roots operators are RootStreams (see there), pulled one root
/// at a time; with a ThreadPool they fan out across its workers.
class Materializer {
 public:
  Materializer(const Catalog* catalog, const TemporalAtomStore* store,
               const LinkStore* links, ThreadPool* pool = nullptr)
      : catalog_(catalog), store_(store), links_(links), pool_(pool) {}

  /// Attaches the query's cancellation token and memory lease (either
  /// may be null). A Materializer is constructed per statement, so these
  /// are query-scoped: every operator checks `ctx` at its batch
  /// boundaries (per root in the all-roots loops, per item in fan-out
  /// workers, every few dozen root-scan callbacks — plus per cache miss
  /// inside VersionCache, which covers cold-segment decodes), and every
  /// cache it creates charges its pins to `lease`. When the lease
  /// reports budget pressure, the all-roots operators drop their pinned
  /// cache between roots and continue with a fresh one.
  void set_governance(const QueryContext* ctx, BudgetLease* lease) {
    ctx_ = ctx;
    lease_ = lease;
  }

  /// Attaches the flight recorder: fan-out workers run under a worker
  /// span with the query's ambient id, so their deep emissions (pool
  /// misses, cold decodes) attribute to the query. Null records nothing.
  void set_trace_recorder(TraceRecorder* rec) { trace_rec_ = rec; }

  /// A cache bound to this materializer's stores (and its governance
  /// scope), for callers that span one query over several operator
  /// invocations (e.g. the executor's per-root index path).
  VersionCache NewCache(const Interval& window = Interval::All()) const {
    VersionCache cache(store_, links_, window);
    cache.set_governance(ctx_, lease_);
    return cache;
  }

  /// The molecule rooted at `root` as of instant `t`. NotFound if the
  /// root atom does not exist or is not valid at `t`.
  Result<Molecule> MaterializeAsOf(const MoleculeTypeDef& type, AtomId root,
                                   Timestamp t) const;

  /// Cache-routed variant: atom and link probes go through `cache`
  /// (whose window must contain `t`), so molecules sharing sub-objects
  /// within one query decode each atom's versions only once.
  Result<Molecule> MaterializeAsOf(const MoleculeTypeDef& type, AtomId root,
                                   Timestamp t, VersionCache* cache) const;

  /// Opens a stream of every molecule of `type` valid at `t` (one per
  /// live root, in scan order). The roots are collected here; no
  /// molecule is built before the first Next().
  Result<std::unique_ptr<RootStream>> StreamAsOf(const MoleculeTypeDef& type,
                                                 Timestamp t) const;

  /// Opens a stream of the molecules of the given roots (in order) as of
  /// `t`, skipping roots not valid at `t`. The executor's index path: the
  /// candidate list comes from a secondary index, which is
  /// version-grained and may over-approximate.
  Result<std::unique_ptr<RootStream>> StreamAsOf(const MoleculeTypeDef& type,
                                                 std::vector<AtomId> roots,
                                                 Timestamp t) const;

  /// Opens a stream of the histories of all molecules of `type` whose
  /// root exists at some point in `window` (in root id order); roots
  /// with no materializable state in the window are skipped.
  Result<std::unique_ptr<RootStream>> StreamHistories(
      const MoleculeTypeDef& type, const Interval& window) const;

  /// Drains StreamAsOf(type, t) into `fn` until it declines.
  Status AllMoleculesAsOf(
      const MoleculeTypeDef& type, Timestamp t,
      const std::function<Result<bool>(Molecule)>& fn) const;

  /// The piecewise-constant evolution of the molecule rooted at `root`
  /// across `window`: change points are the union of the version
  /// boundaries of every atom ever reachable in the window and of every
  /// link among them. Adjacent identical states are coalesced; intervals
  /// where the root is dead appear as gaps.
  ///
  /// Incremental processing: every reachable atom is pinned into a
  /// query-scoped cache once, then the boundaries are swept over the
  /// precomputed timelines — version-only change points patch the
  /// previous state in place, structural ones (link or liveness changes)
  /// re-run the in-memory fixpoint. No store access happens after the
  /// pinning phase.
  Result<MoleculeHistory> History(const MoleculeTypeDef& type, AtomId root,
                                  const Interval& window) const;

  /// Same, against a caller-provided cache (window must contain
  /// `window`); lets one statement share pinned atoms across molecules.
  Result<MoleculeHistory> History(const MoleculeTypeDef& type, AtomId root,
                                  const Interval& window,
                                  VersionCache* cache) const;

  /// Reference implementation of History(): re-materializes the molecule
  /// from the store at every elementary interval. Kept for differential
  /// testing and as the baseline the benchmarks compare against.
  Result<MoleculeHistory> NaiveHistory(const MoleculeTypeDef& type,
                                       AtomId root,
                                       const Interval& window) const;

  /// Drains StreamHistories(type, window) into `fn` until it declines.
  Status AllHistories(
      const MoleculeTypeDef& type, const Interval& window,
      const std::function<Result<bool>(MoleculeHistory)>& fn) const;

  /// Cumulative stats of the caches this materializer created internally
  /// (one per History call or root stream). Caches passed in by callers
  /// are accounted by the caller (or merged in via AccumulateCacheStats).
  const VersionCacheStats& cache_stats() const { return cache_stats_; }
  void ResetCacheStats() const { cache_stats_ = VersionCacheStats(); }
  void AccumulateCacheStats(const VersionCacheStats& s) const {
    cache_stats_ += s;
  }

  /// Wall time (microseconds) each worker spent in the most recent
  /// fan-out of a root stream (set when the stream finishes); empty when
  /// it ran serially. EXPLAIN ANALYZE reports these as the per-worker
  /// span breakdown.
  const std::vector<double>& last_worker_micros() const {
    return last_worker_us_;
  }

 private:
  friend class RootStream;

  /// Opens a stream over collected roots (see RootStream).
  std::unique_ptr<RootStream> OpenStream(const MoleculeTypeDef& type,
                                         std::vector<AtomId> roots,
                                         bool history, Timestamp t,
                                         const Interval& window,
                                         bool skip_not_found) const;

  /// Atom-type lookup for every type reachable by `type`'s edges.
  Result<const AtomTypeDef*> AtomTypeOf(TypeId id) const;

  /// Fixpoint discovery of all atoms ever reachable from `root` within
  /// `window`, together with the link instances among them.
  struct ReachableSet {
    // atom id -> its type
    std::map<AtomId, TypeId> atoms;
    // every link instance (with validity) encountered during discovery
    std::vector<std::tuple<LinkTypeId, AtomId, AtomId, Interval>> links;
  };
  /// `cache` may be null (direct link-store access).
  Result<ReachableSet> DiscoverReachable(const MoleculeTypeDef& type,
                                         AtomId root, const Interval& window,
                                         VersionCache* cache) const;

  /// Shared fixpoint of both MaterializeAsOf overloads; `cache` may be
  /// null (direct store access).
  Result<Molecule> MaterializeAsOfImpl(const MoleculeTypeDef& type,
                                       AtomId root, Timestamp t,
                                       VersionCache* cache) const;

  /// The incremental sweep behind both History overloads.
  Result<MoleculeHistory> HistorySweep(const MoleculeTypeDef& type,
                                       AtomId root, const Interval& window,
                                       VersionCache* cache) const;

  /// True when the fan-out machinery should engage for `n` roots.
  bool UseParallel(size_t n) const {
    return pool_ != nullptr && pool_->workers() > 1 && n > 1;
  }

  /// OK while the query may keep running (always OK with no context).
  Status CheckContext() const {
    return ctx_ != nullptr ? ctx_->Check() : Status::OK();
  }

  /// Root-collection governance: checks the context every 64 roots.
  Status CheckEvery64(size_t collected) const {
    return (collected & 63) == 0 ? CheckContext() : Status::OK();
  }

  const Catalog* catalog_;
  const TemporalAtomStore* store_;
  const LinkStore* links_;
  ThreadPool* pool_;
  const QueryContext* ctx_ = nullptr;
  BudgetLease* lease_ = nullptr;
  TraceRecorder* trace_rec_ = nullptr;
  mutable VersionCacheStats cache_stats_;
  // Written by a root stream on the consuming thread, after its workers
  // have been joined.
  mutable std::vector<double> last_worker_us_;
};

}  // namespace tcob

#endif  // TCOB_MAD_MATERIALIZER_H_
