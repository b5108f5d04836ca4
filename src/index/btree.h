#ifndef TCOB_INDEX_BTREE_H_
#define TCOB_INDEX_BTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/slice.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace tcob {

/// B+-tree read work, as monotonic counters (like BufferPoolStats):
/// `probes` counts Get / Floor / Scan / ScanPrefix calls, `node_visits`
/// the node pages any tree operation searched or decoded.
struct IndexStats {
  uint64_t probes = 0;
  uint64_t node_visits = 0;

  /// Delta between two snapshots of the same counters (EXPLAIN ANALYZE
  /// attributes per-query index work this way).
  IndexStats& operator-=(const IndexStats& o) {
    probes -= o.probes;
    node_visits -= o.node_visits;
    return *this;
  }
};

/// The live counters behind IndexStats, shared by every tree of one
/// database (relaxed atomics: concurrent readers count exactly).
struct IndexCounters {
  Counter probes;
  Counter node_visits;

  IndexStats stats() const { return {probes.value(), node_visits.value()}; }
};

/// Disk-resident B+-tree mapping variable-length byte keys (memcmp order)
/// to 64-bit payloads.
///
/// Used for every index in TCOB: atom-id → RID directories, version
/// directories, and secondary attribute indexes (via the order-preserving
/// encodings in common/coding.h).
///
/// Each page holds one sorted node. Reads (Get, Floor, Scan, ScanPrefix,
/// Height) search the pinned page bytes in place through a bounds-checked
/// node reader and copy no key; a malformed node is Corruption. Writes
/// decode the node, mutate the copy and encode it back. Splits propagate
/// upward; deletion is lazy (no rebalancing — vacated space is reused by
/// later inserts, matching the workload pattern of the modeled system
/// where histories only grow), so a leaf may be empty.
///
/// Concurrency: a tree-wide reader/writer latch. Reads may run
/// concurrently with each other; Put/Delete take the latch exclusively.
/// Scan callbacks run with the current leaf pinned and the shared latch
/// held, so they must not call back into the same tree, and the key
/// Slice they receive points into the page: it is valid only during the
/// call.
class BTree {
 public:
  /// Opens (formatting if empty) the tree stored in file `name`. When
  /// `counters` is non-null the tree counts its work there.
  static Result<std::unique_ptr<BTree>> Open(
      BufferPool* pool, const std::string& name,
      IndexCounters* counters = nullptr);

  /// Inserts or overwrites `key`.
  Status Put(const Slice& key, uint64_t value);

  /// Point lookup; NotFound if absent.
  Result<uint64_t> Get(const Slice& key) const;

  /// Removes `key`; NotFound if absent.
  Status Delete(const Slice& key);

  /// Calls fn(key, value) for every entry with lower <= key < upper
  /// (empty `upper` == unbounded), in key order; stops early when fn
  /// returns false.
  Status Scan(const Slice& lower, const Slice& upper,
              const std::function<Result<bool>(const Slice&, uint64_t)>& fn)
      const;

  /// Calls fn for every entry whose key starts with `prefix`, in order.
  Status ScanPrefix(
      const Slice& prefix,
      const std::function<Result<bool>(const Slice&, uint64_t)>& fn) const;

  /// Greatest entry with key <= target (floor); NotFound when none.
  Result<std::pair<std::string, uint64_t>> Floor(const Slice& target) const;

  /// Number of live entries.
  uint64_t Size() const {
    std::shared_lock<std::shared_mutex> lock(latch_);
    return entry_count_;
  }

  /// Tree height (1 == root is a leaf).
  Result<uint32_t> Height() const;

  /// Exhaustive structural check: uniform leaf depth, strictly sorted
  /// keys respecting every separator bound, internal child counts, the
  /// left-to-right leaf chain, and the persisted entry count. Read-only;
  /// returns Corruption describing the first violation.
  Status VerifyStructure() const;

  FileId file_id() const { return file_; }

 private:
  BTree(BufferPool* pool, FileId file, IndexCounters* counters)
      : pool_(pool), file_(file), counters_(counters) {}

  class NodeView;
  struct PinnedNode;

  // In-memory image of one node page.
  struct Node {
    bool is_leaf = true;
    PageNo next_leaf = kInvalidPageNo;
    std::vector<std::string> keys;
    // Leaves: values[i] pairs with keys[i].
    // Internal: children.size() == keys.size() + 1; keys[i] is the lowest
    // key reachable under children[i + 1].
    std::vector<uint64_t> values;
    std::vector<PageNo> children;
  };

  Status LoadOrFormat(const std::string& name);
  Status SaveMeta();
  /// Pins node page `page` and parses its header (one node visit).
  Result<PinnedNode> Visit(PageNo page) const;
  Result<Node> ReadNode(PageNo page) const;
  Status WriteNode(PageNo page, const Node& node);
  Result<PageNo> AllocNode();
  static size_t NodeSize(const Node& node);
  static int LowerBound(const Node& node, const Slice& key);

  struct SplitResult {
    bool split = false;
    std::string sep_key;    // lowest key of the new right sibling
    PageNo right_page = kInvalidPageNo;
  };

  /// Recursive insert; reports a split of `page` to the caller.
  Result<SplitResult> InsertRec(PageNo page, const Slice& key, uint64_t value,
                                bool* replaced);

  /// Descends to the leaf that may contain `key` and returns it pinned.
  Result<PinnedNode> FindLeaf(const Slice& key) const;

  /// Greatest entry <= target in the subtree at `page`, copied to *out;
  /// false when the subtree holds none.
  Result<bool> FloorIn(PageNo page, const Slice& target, uint32_t depth,
                       std::pair<std::string, uint64_t>* out) const;

  void CountProbe() const {
    if (counters_ != nullptr) counters_->probes.Increment();
  }

  /// Scan body, caller holds the latch (shared or exclusive).
  Status ScanLocked(
      const Slice& lower, const Slice& upper,
      const std::function<Result<bool>(const Slice&, uint64_t)>& fn) const;

  /// Accumulated observations of a VerifyStructure walk.
  struct VerifyState {
    uint32_t leaf_depth = 0;      // depth of the first leaf seen (0 = none)
    uint64_t entries = 0;
    std::vector<PageNo> leaves;   // in key order
  };

  /// Recursive check of the subtree at `page`; every key must fall in
  /// [lower, upper) when the respective bound is present.
  Status VerifyRec(PageNo page, uint32_t depth, const std::string* lower,
                   const std::string* upper, VerifyState* vs) const;

  BufferPool* pool_;
  FileId file_;
  IndexCounters* counters_;  // may be null: nothing is counted
  // Tree-wide reader/writer latch: shared for lookups and scans,
  // exclusive for Put/Delete (writes stay single-threaded upstream, the
  // exclusive mode just keeps concurrent readers out mid-split).
  mutable std::shared_mutex latch_;
  PageNo root_ = kInvalidPageNo;
  uint64_t entry_count_ = 0;
};

}  // namespace tcob

#endif  // TCOB_INDEX_BTREE_H_
