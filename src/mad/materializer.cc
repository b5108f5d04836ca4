#include "mad/materializer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <set>

#include "common/bounded_queue.h"
#include "common/metrics.h"

namespace tcob {

/// The fan-out half of a RootStream: worker w builds roots w, w+W,
/// w+2W, ... against its own cache into its own bounded channel, so the
/// consumer popping channel i mod W sees items in root order while the
/// workers stay at most a channel's capacity ahead of it.
class RootStream::FanOut {
 public:
  FanOut(RootStream* stream, size_t workers) : stream_(stream) {
    const Materializer* mat = stream_->mat_;
    for (size_t w = 0; w < workers; ++w) {
      caches_.push_back(mat->NewCache(stream_->window_));
      channels_.push_back(std::make_unique<Channel>(kChannelCapacity));
    }
    dropped_stats_.resize(workers);
    worker_us_.assign(workers, 0.0);
    std::vector<std::function<void()>> tasks;
    for (size_t w = 0; w < workers; ++w) {
      tasks.push_back([this, w] { Work(w); });
    }
    batch_ = mat->pool_->Submit(std::move(tasks));
  }

  // The workers hold `this`.
  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  /// The item of root `i`; callers take roots strictly in order.
  Result<RootResult> Take(size_t i) {
    std::optional<Result<RootResult>> item =
        channels_[i % channels_.size()]->Pop();
    if (!item.has_value()) {
      return Status::Internal("fan-out worker ended before root " +
                              std::to_string(i));
    }
    return std::move(*item);
  }

  /// Lets the workers finish their roots (`drain`) or aborts them, joins
  /// them, and folds their cache stats and timings into the materializer.
  void Stop(bool drain) {
    if (drain) {
      for (auto& channel : channels_) {
        while (channel->Pop().has_value()) {
        }
      }
    } else {
      abort_.store(true, std::memory_order_release);
      for (auto& channel : channels_) channel->CloseConsumer();
    }
    const Materializer* mat = stream_->mat_;
    mat->pool_->Wait(batch_);
    for (const VersionCache& c : caches_) mat->cache_stats_ += c.stats();
    for (const VersionCacheStats& s : dropped_stats_) mat->cache_stats_ += s;
    mat->last_worker_us_ = worker_us_;
    caches_.clear();  // return the pinned versions to the budget now
  }

 private:
  using Channel = BoundedQueue<Result<RootResult>>;
  static constexpr size_t kChannelCapacity = 16;

  void Work(size_t w) {
    const Materializer* mat = stream_->mat_;
    // Pool threads carry no ambient query id of their own: adopt this
    // query's so everything the worker touches below (version cache,
    // buffer pool, cold tier) attributes to it.
    TraceQueryScope qscope(mat->ctx_ != nullptr ? mat->ctx_->query_id() : 0);
    TraceSpanScope span(mat->trace_rec_, TraceSpanId::kWorker);
    StopwatchUs timer;
    for (size_t i = w; i < stream_->roots_.size(); i += channels_.size()) {
      if (abort_.load(std::memory_order_acquire)) break;
      Result<RootResult> r =
          stream_->BuildGoverned(i, &caches_[w], &dropped_stats_[w]);
      // A real error is this worker's last item: the roots after it
      // cannot hold the first error in root order.
      const bool hard_error = !r.ok() && !stream_->Skipped(r);
      if (!channels_[w]->Push(std::move(r))) break;  // consumer left
      if (hard_error) break;
    }
    channels_[w]->CloseProducer();
    worker_us_[w] = timer.ElapsedUs();
  }

  RootStream* const stream_;
  // Each worker touches only its own slot of these.
  std::vector<VersionCache> caches_;
  std::vector<VersionCacheStats> dropped_stats_;
  std::vector<double> worker_us_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::atomic<bool> abort_{false};
  ThreadPool::BatchHandle batch_;
};

RootStream::RootStream(const Materializer* mat, const MoleculeTypeDef& type,
                       std::vector<AtomId> roots, bool history, Timestamp t,
                       const Interval& window, bool skip_not_found)
    : mat_(mat),
      type_(type),
      roots_(std::move(roots)),
      history_(history),
      t_(t),
      window_(window),
      skip_not_found_(skip_not_found) {
  mat_->last_worker_us_.clear();
  if (mat_->UseParallel(roots_.size())) {
    fanout_ = std::make_unique<FanOut>(
        this, std::min(mat_->pool_->workers(), roots_.size()));
  } else {
    // One cache for the whole statement: a sub-object shared by many
    // molecules (a department referenced by every employee) is fetched
    // once.
    cache_.emplace(mat_->NewCache(window_));
  }
}

RootStream::~RootStream() { Finish(/*drain=*/false); }

Result<bool> RootStream::Next(RootResult* out) {
  if (!error_.ok()) return error_;
  while (next_ < roots_.size()) {
    const size_t i = next_++;
    Result<RootResult> r =
        fanout_ != nullptr ? fanout_->Take(i)
                           : BuildGoverned(i, &*cache_, &mat_->cache_stats_);
    if (Skipped(r)) continue;
    if (!r.ok()) return Fail(r.status());
    *out = std::move(r).value();
    return true;
  }
  Finish(/*drain=*/false);
  return false;
}

Result<RootResult> RootStream::BuildGoverned(size_t i, VersionCache* cache,
                                             VersionCacheStats* dropped) const {
  TCOB_RETURN_NOT_OK(mat_->CheckContext());
  if (mat_->lease_ != nullptr && mat_->lease_->TakePressure()) {
    // Budget pressure: drop the pinned cache and continue fresh. Only
    // between roots — HistorySweep holds raw entry pointers while it runs.
    *dropped += cache->stats();
    *cache = mat_->NewCache(window_);
  }
  RootResult r;
  if (history_) {
    TCOB_ASSIGN_OR_RETURN(r.history,
                          mat_->HistorySweep(type_, roots_[i], window_, cache));
  } else {
    TCOB_ASSIGN_OR_RETURN(
        r.molecule, mat_->MaterializeAsOfImpl(type_, roots_[i], t_, cache));
  }
  return r;
}

bool RootStream::Skipped(const Result<RootResult>& r) const {
  // Candidate lists may over-approximate (index false positives); a root
  // alive in the window but never materializable (its states all gaps)
  // is silent.
  if (!r.ok()) return skip_not_found_ && r.status().IsNotFound();
  return history_ && r.value().history.states.empty();
}

Status RootStream::Fail(Status status) {
  error_ = status;
  Finish(/*drain=*/true);
  return status;
}

void RootStream::Finish(bool drain) {
  if (finished_) return;
  finished_ = true;
  if (fanout_ != nullptr) fanout_->Stop(drain);
  if (cache_.has_value()) {
    mat_->cache_stats_ += cache_->stats();
    cache_.reset();
  }
}

namespace {

/// Feeds a stream's items to `fn` until the stream ends or `fn` declines.
Status DrainStream(Result<std::unique_ptr<RootStream>> stream,
                   const std::function<Result<bool>(RootResult*)>& fn) {
  TCOB_RETURN_NOT_OK(stream.status());
  RootResult item;
  for (;;) {
    TCOB_ASSIGN_OR_RETURN(bool more, stream.value()->Next(&item));
    if (!more) return Status::OK();
    TCOB_ASSIGN_OR_RETURN(bool keep_going, fn(&item));
    if (!keep_going) return Status::OK();
  }
}

}  // namespace

Result<const AtomTypeDef*> Materializer::AtomTypeOf(TypeId id) const {
  return catalog_->GetAtomType(id);
}

Result<Molecule> Materializer::MaterializeAsOf(const MoleculeTypeDef& type,
                                               AtomId root,
                                               Timestamp t) const {
  return MaterializeAsOfImpl(type, root, t, nullptr);
}

Result<Molecule> Materializer::MaterializeAsOf(const MoleculeTypeDef& type,
                                               AtomId root, Timestamp t,
                                               VersionCache* cache) const {
  return MaterializeAsOfImpl(type, root, t, cache);
}

Result<Molecule> Materializer::MaterializeAsOfImpl(const MoleculeTypeDef& type,
                                                   AtomId root, Timestamp t,
                                                   VersionCache* cache) const {
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* root_type,
                        AtomTypeOf(type.root_type));
  std::optional<AtomVersion> root_version;
  if (cache != nullptr) {
    TCOB_ASSIGN_OR_RETURN(const AtomVersion* v,
                          cache->AsOf(*root_type, root, t));
    if (v != nullptr) root_version = *v;
  } else {
    TCOB_ASSIGN_OR_RETURN(root_version, store_->GetAsOf(*root_type, root, t));
  }
  if (!root_version.has_value()) {
    return Status::NotFound("root atom " + std::to_string(root) +
                            " not valid at " + TimestampToString(t));
  }

  Molecule mol;
  mol.type = type.id;
  mol.root = root;
  mol.atoms[root] = std::move(*root_version);
  std::map<AtomId, TypeId> atom_types = {{root, type.root_type}};

  // Fixpoint over the edge list: keep sweeping until no edge adds atoms
  // or edges (cyclic type graphs converge because both sets only grow).
  std::set<std::tuple<LinkTypeId, AtomId, AtomId>> edge_set;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const MoleculeEdge& edge : type.edges) {
      TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                            catalog_->GetLinkType(edge.link));
      TypeId source_type = edge.forward ? link->from_type : link->to_type;
      TypeId target_type = edge.forward ? link->to_type : link->from_type;
      TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* target_def,
                            AtomTypeOf(target_type));
      // Snapshot the current source atoms (the map mutates inside).
      std::vector<AtomId> sources;
      for (const auto& [id, tid] : atom_types) {
        if (tid == source_type) sources.push_back(id);
      }
      for (AtomId source : sources) {
        std::vector<AtomId> partners;
        if (cache != nullptr) {
          TCOB_ASSIGN_OR_RETURN(
              partners, cache->NeighborsAsOf(*link, source, edge.forward, t));
        } else {
          TCOB_ASSIGN_OR_RETURN(
              partners, links_->NeighborsAsOf(*link, source, edge.forward, t));
        }
        for (AtomId partner : partners) {
          AtomId from = edge.forward ? source : partner;
          AtomId to = edge.forward ? partner : source;
          auto key = std::make_tuple(link->id, from, to);
          if (mol.atoms.count(partner) == 0) {
            std::optional<AtomVersion> v;
            if (cache != nullptr) {
              TCOB_ASSIGN_OR_RETURN(const AtomVersion* pv,
                                    cache->AsOf(*target_def, partner, t));
              if (pv != nullptr) v = *pv;
            } else {
              TCOB_ASSIGN_OR_RETURN(v,
                                    store_->GetAsOf(*target_def, partner, t));
            }
            if (!v.has_value()) continue;  // dangling link; skip partner
            mol.atoms[partner] = std::move(*v);
            atom_types[partner] = target_type;
            changed = true;
          }
          if (edge_set.insert(key).second) {
            mol.edges.push_back(MoleculeEdgeInstance{link->id, from, to});
            changed = true;
          }
        }
      }
    }
  }
  std::sort(mol.edges.begin(), mol.edges.end());
  return mol;
}

std::unique_ptr<RootStream> Materializer::OpenStream(
    const MoleculeTypeDef& type, std::vector<AtomId> roots, bool history,
    Timestamp t, const Interval& window, bool skip_not_found) const {
  return std::unique_ptr<RootStream>(new RootStream(
      this, type, std::move(roots), history, t, window, skip_not_found));
}

Result<std::unique_ptr<RootStream>> Materializer::StreamAsOf(
    const MoleculeTypeDef& type, Timestamp t) const {
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* root_type,
                        AtomTypeOf(type.root_type));
  std::vector<AtomId> roots;
  TCOB_RETURN_NOT_OK(store_->ScanAsOf(
      *root_type, t, [&](const AtomVersion& root) -> Result<bool> {
        roots.push_back(root.id);
        TCOB_RETURN_NOT_OK(CheckEvery64(roots.size()));
        return true;
      }));
  // A scanned root is valid at t by construction, so NotFound is a real
  // error here.
  return OpenStream(type, std::move(roots), /*history=*/false, t,
                    Interval::At(t), /*skip_not_found=*/false);
}

Result<std::unique_ptr<RootStream>> Materializer::StreamAsOf(
    const MoleculeTypeDef& type, std::vector<AtomId> roots,
    Timestamp t) const {
  return OpenStream(type, std::move(roots), /*history=*/false, t,
                    Interval::At(t), /*skip_not_found=*/true);
}

Result<std::unique_ptr<RootStream>> Materializer::StreamHistories(
    const MoleculeTypeDef& type, const Interval& window) const {
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* root_type,
                        AtomTypeOf(type.root_type));
  std::set<AtomId> roots;
  size_t scanned = 0;
  TCOB_RETURN_NOT_OK(store_->ScanVersions(
      *root_type, window, [&](const AtomVersion& v) -> Result<bool> {
        roots.insert(v.id);
        TCOB_RETURN_NOT_OK(CheckEvery64(++scanned));
        return true;
      }));
  return OpenStream(type, std::vector<AtomId>(roots.begin(), roots.end()),
                    /*history=*/true, window.begin, window,
                    /*skip_not_found=*/false);
}

Status Materializer::AllMoleculesAsOf(
    const MoleculeTypeDef& type, Timestamp t,
    const std::function<Result<bool>(Molecule)>& fn) const {
  return DrainStream(StreamAsOf(type, t), [&](RootResult* r) {
    return fn(std::move(r->molecule));
  });
}

Result<Materializer::ReachableSet> Materializer::DiscoverReachable(
    const MoleculeTypeDef& type, AtomId root, const Interval& window,
    VersionCache* cache) const {
  ReachableSet reach;
  reach.atoms[root] = type.root_type;
  std::set<std::tuple<LinkTypeId, AtomId, AtomId, Timestamp>> seen_links;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const MoleculeEdge& edge : type.edges) {
      TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                            catalog_->GetLinkType(edge.link));
      TypeId source_type = edge.forward ? link->from_type : link->to_type;
      TypeId target_type = edge.forward ? link->to_type : link->from_type;
      std::vector<AtomId> sources;
      for (const auto& [id, tid] : reach.atoms) {
        if (tid == source_type) sources.push_back(id);
      }
      for (AtomId source : sources) {
        std::vector<std::pair<AtomId, Interval>> direct;
        const std::vector<std::pair<AtomId, Interval>>* partners;
        if (cache != nullptr) {
          TCOB_ASSIGN_OR_RETURN(partners,
                                cache->Neighbors(*link, source, edge.forward));
        } else {
          TCOB_ASSIGN_OR_RETURN(
              direct, links_->NeighborsIn(*link, source, edge.forward,
                                          window));
          partners = &direct;
        }
        for (const auto& [partner, valid] : *partners) {
          // The cache may be pinned over a wider window; stay exact.
          if (!valid.Overlaps(window)) continue;
          AtomId from = edge.forward ? source : partner;
          AtomId to = edge.forward ? partner : source;
          auto key = std::make_tuple(link->id, from, to, valid.begin);
          if (seen_links.insert(key).second) {
            reach.links.emplace_back(link->id, from, to, valid);
            changed = true;
          }
          if (reach.atoms.count(partner) == 0) {
            reach.atoms[partner] = target_type;
            changed = true;
          }
        }
      }
    }
  }
  return reach;
}

Result<MoleculeHistory> Materializer::History(const MoleculeTypeDef& type,
                                              AtomId root,
                                              const Interval& window) const {
  VersionCache cache = NewCache(window);
  Result<MoleculeHistory> out = HistorySweep(type, root, window, &cache);
  cache_stats_ += cache.stats();
  return out;
}

Result<MoleculeHistory> Materializer::History(const MoleculeTypeDef& type,
                                              AtomId root,
                                              const Interval& window,
                                              VersionCache* cache) const {
  return HistorySweep(type, root, window, cache);
}

Result<MoleculeHistory> Materializer::HistorySweep(
    const MoleculeTypeDef& type, AtomId root, const Interval& window,
    VersionCache* cache) const {
  if (window.empty()) {
    return Status::InvalidArgument("empty history window");
  }
  TCOB_ASSIGN_OR_RETURN(ReachableSet reach,
                        DiscoverReachable(type, root, window, cache));

  // Pin every reachable atom exactly once. Boundary derivation and the
  // whole sweep below run against these pinned version lists — no store
  // access happens past this point.
  std::map<AtomId, const VersionCache::AtomEntry*> pinned;
  for (const auto& [atom_id, type_id] : reach.atoms) {
    TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* atom_type, AtomTypeOf(type_id));
    TCOB_ASSIGN_OR_RETURN(const VersionCache::AtomEntry* entry,
                          cache->Pin(*atom_type, atom_id));
    pinned[atom_id] = entry;
  }

  // Change points inside the window, each classified: a version swap
  // (one version ending exactly where the next begins) keeps liveness
  // and connectivity intact, so the sweep patches the previous state in
  // place; births, deaths and link boundaries are structural and re-run
  // the in-memory fixpoint.
  struct Delta {
    std::vector<AtomId> swaps;
    bool structural = false;
  };
  std::map<Timestamp, Delta> deltas;
  auto mark_structural = [&](Timestamp t) {
    if (t > window.begin && t < window.end) deltas[t].structural = true;
  };
  for (const auto& [atom_id, entry] : pinned) {
    if (!entry->found) continue;
    const std::vector<AtomVersion>& versions = entry->versions;
    for (size_t i = 0; i < versions.size(); ++i) {
      const Interval& valid = versions[i].valid;
      bool swap_in = i > 0 && versions[i - 1].valid.end == valid.begin;
      if (valid.begin > window.begin && valid.begin < window.end) {
        if (swap_in) {
          deltas[valid.begin].swaps.push_back(atom_id);
        } else {
          mark_structural(valid.begin);  // (re)birth
        }
      }
      bool swap_out =
          i + 1 < versions.size() && versions[i + 1].valid.begin == valid.end;
      if (!valid.open_ended() && !swap_out) {
        mark_structural(valid.end);  // death
      }
    }
  }
  for (const auto& [link_id, from, to, valid] : reach.links) {
    (void)link_id;
    (void)from;
    (void)to;
    mark_structural(valid.begin);
    if (!valid.open_ended()) mark_structural(valid.end);
  }

  // Elementary intervals between consecutive boundaries.
  std::vector<Timestamp> points;
  points.reserve(deltas.size() + 2);
  points.push_back(window.begin);
  for (const auto& [t, delta] : deltas) {
    (void)delta;
    points.push_back(t);
  }
  points.push_back(window.end);

  // Adjacency over the discovered link instances, indexed per side so
  // the fixpoint below never touches the link store again.
  struct AdjInstance {
    AtomId from;
    AtomId to;
    Interval valid;
  };
  std::map<std::pair<LinkTypeId, AtomId>, std::vector<AdjInstance>> fwd, rev;
  for (const auto& [link_id, from, to, valid] : reach.links) {
    fwd[{link_id, from}].push_back({from, to, valid});
    rev[{link_id, to}].push_back({from, to, valid});
  }

  // In-memory fixpoint: same traversal as MaterializeAsOf, but against
  // the pinned timelines and the adjacency index. nullopt = gap (root —
  // or a linked partner record — absent, mirroring the store path).
  auto state_at = [&](Timestamp t) -> Result<std::optional<Molecule>> {
    const VersionCache::AtomEntry* root_entry = pinned.at(root);
    std::optional<uint64_t> root_idx;
    if (root_entry->found) root_idx = root_entry->timeline.AsOf(t);
    if (!root_idx.has_value()) return std::optional<Molecule>();
    Molecule mol;
    mol.type = type.id;
    mol.root = root;
    mol.atoms[root] = root_entry->versions[*root_idx];
    std::map<AtomId, TypeId> atom_types = {{root, type.root_type}};
    std::set<std::tuple<LinkTypeId, AtomId, AtomId>> edge_set;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const MoleculeEdge& edge : type.edges) {
        TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                              catalog_->GetLinkType(edge.link));
        TypeId source_type = edge.forward ? link->from_type : link->to_type;
        TypeId target_type = edge.forward ? link->to_type : link->from_type;
        std::vector<AtomId> sources;
        for (const auto& [id, tid] : atom_types) {
          if (tid == source_type) sources.push_back(id);
        }
        const auto& adj = edge.forward ? fwd : rev;
        for (AtomId source : sources) {
          auto adj_it = adj.find({link->id, source});
          if (adj_it == adj.end()) continue;
          for (const AdjInstance& inst : adj_it->second) {
            if (!inst.valid.Contains(t)) continue;
            AtomId partner = edge.forward ? inst.to : inst.from;
            auto key = std::make_tuple(link->id, inst.from, inst.to);
            if (mol.atoms.count(partner) == 0) {
              const VersionCache::AtomEntry* p = pinned.at(partner);
              if (!p->found) {
                // A link to a never-inserted atom surfaces as NotFound
                // on the store path, which History() renders as a gap.
                return std::optional<Molecule>();
              }
              std::optional<uint64_t> idx = p->timeline.AsOf(t);
              if (!idx.has_value()) continue;  // dangling link; skip partner
              mol.atoms[partner] = p->versions[*idx];
              atom_types[partner] = target_type;
              changed = true;
            }
            if (edge_set.insert(key).second) {
              mol.edges.push_back(
                  MoleculeEdgeInstance{link->id, inst.from, inst.to});
              changed = true;
            }
          }
        }
      }
    }
    std::sort(mol.edges.begin(), mol.edges.end());
    return std::optional<Molecule>(std::move(mol));
  };

  MoleculeHistory history;
  history.root = root;
  std::optional<Molecule> prev;
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    Interval piece(points[i], points[i + 1]);
    std::optional<Molecule> cur;
    const Delta* delta =
        i == 0 ? nullptr : &deltas.find(points[i])->second;
    if (delta != nullptr && !delta->structural && prev.has_value()) {
      // Version-swap-only boundary: patch the changed members in place.
      cur = prev;
      for (AtomId atom_id : delta->swaps) {
        auto member = cur->atoms.find(atom_id);
        if (member == cur->atoms.end()) continue;  // not a member here
        const VersionCache::AtomEntry* entry = pinned.at(atom_id);
        std::optional<uint64_t> idx = entry->timeline.AsOf(piece.begin);
        // A swap guarantees a successor version starting at this instant.
        member->second = entry->versions[*idx];
      }
    } else {
      TCOB_ASSIGN_OR_RETURN(cur, state_at(piece.begin));
    }
    if (cur.has_value()) {
      if (!history.states.empty() &&
          history.states.back().valid.Meets(piece) &&
          history.states.back().molecule.SameState(*cur)) {
        history.states.back().valid.end = piece.end;  // coalesce
      } else {
        history.states.push_back(MoleculeState{piece, *cur});
      }
    }
    prev = std::move(cur);
  }
  return history;
}

Result<MoleculeHistory> Materializer::NaiveHistory(
    const MoleculeTypeDef& type, AtomId root, const Interval& window) const {
  if (window.empty()) {
    return Status::InvalidArgument("empty history window");
  }
  TCOB_ASSIGN_OR_RETURN(ReachableSet reach,
                        DiscoverReachable(type, root, window, nullptr));

  // Change points: version boundaries of every reachable atom plus link
  // validity boundaries, clipped to the window. Note the re-fetch: the
  // sweep path derives these from the cached version lists instead.
  std::set<Timestamp> boundaries = {window.begin};
  for (const auto& [atom_id, type_id] : reach.atoms) {
    TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* atom_type, AtomTypeOf(type_id));
    Result<std::vector<AtomVersion>> versions =
        store_->GetVersions(*atom_type, atom_id, window);
    if (!versions.ok()) {
      if (versions.status().IsNotFound()) continue;
      return versions.status();
    }
    for (const AtomVersion& v : versions.value()) {
      if (v.valid.begin > window.begin && v.valid.begin < window.end) {
        boundaries.insert(v.valid.begin);
      }
      if (!v.valid.open_ended() && v.valid.end > window.begin &&
          v.valid.end < window.end) {
        boundaries.insert(v.valid.end);
      }
    }
  }
  for (const auto& [link_id, from, to, valid] : reach.links) {
    (void)link_id;
    (void)from;
    (void)to;
    if (valid.begin > window.begin && valid.begin < window.end) {
      boundaries.insert(valid.begin);
    }
    if (!valid.open_ended() && valid.end > window.begin &&
        valid.end < window.end) {
      boundaries.insert(valid.end);
    }
  }

  // Elementary intervals between consecutive boundaries.
  std::vector<Timestamp> points(boundaries.begin(), boundaries.end());
  points.push_back(window.end);

  MoleculeHistory history;
  history.root = root;
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    Interval piece(points[i], points[i + 1]);
    Result<Molecule> mol = MaterializeAsOfImpl(type, root, piece.begin,
                                               nullptr);
    if (!mol.ok()) {
      if (mol.status().IsNotFound()) continue;  // root dead: gap
      return mol.status();
    }
    if (!history.states.empty() &&
        history.states.back().valid.Meets(piece) &&
        history.states.back().molecule.SameState(mol.value())) {
      history.states.back().valid.end = piece.end;  // coalesce
    } else {
      history.states.push_back(MoleculeState{piece, std::move(mol).value()});
    }
  }
  return history;
}

Status Materializer::AllHistories(
    const MoleculeTypeDef& type, const Interval& window,
    const std::function<Result<bool>(MoleculeHistory)>& fn) const {
  return DrainStream(StreamHistories(type, window), [&](RootResult* r) {
    return fn(std::move(r->history));
  });
}

}  // namespace tcob
