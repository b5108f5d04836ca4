#include "index/btree.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "storage/slotted_page.h"

namespace tcob {

namespace {

constexpr uint32_t kNodeHeader = 12;
constexpr uint32_t kNodeCapacity = kPageDataSize - kNodeHeader;
constexpr uint32_t kBTreeMagic = 0x54424954;  // "TBIT"
// No tree of 4 KiB pages grows this deep; a descent that does follows a
// cycle of corrupt child pointers.
constexpr uint32_t kMaxHeight = 64;

// Meta page field offsets.
constexpr uint32_t kMetaMagicOff = 8;
constexpr uint32_t kMetaRootOff = 12;
constexpr uint32_t kMetaCountOff = 16;

/// Decodes an unsigned LEB128 varint from [*p, end) and advances *p, with
/// GetVarint64's rules; false when it is truncated.
inline bool ReadVarint(const char** p, const char* end, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && *p < end; shift += 7) {
    const uint8_t byte = static_cast<uint8_t>(*(*p)++);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

Status NodeCorruption(PageNo page, const char* what) {
  return Status::Corruption("btree node " + std::to_string(page) + ": " +
                            what);
}

Status TooDeep() {
  return Status::Corruption("btree deeper than 64 levels (cycle?)");
}

}  // namespace

/// Bounds-checked, allocation-free reader over the bytes of one node page
/// (layout: [type][is_leaf][0:2][next_leaf:4][payload_len:4], then the
/// payload: varint n_keys; a leaf holds n x (length-prefixed key, varint
/// value), an internal node (n + 1) x fixed32 child then n length-prefixed
/// keys). Parse() checks the header against the data area, and Cursor
/// checks every entry against the payload end, so a malformed node is
/// Corruption and no read leaves the payload. Key slices point into the
/// page: a view is valid only while its page stays pinned.
class BTree::NodeView {
 public:
  static Result<NodeView> Parse(const Page& page) {
    const char* data = page.data;
    if (static_cast<PageType>(static_cast<uint8_t>(data[0])) !=
        PageType::kIndex) {
      return Status::Corruption("page " + std::to_string(page.page_no) +
                                " is not a btree node");
    }
    NodeView v;
    v.page_no_ = page.page_no;
    v.is_leaf_ = data[1] != 0;
    v.next_leaf_ = DecodeFixed32(data + 4);
    const uint32_t payload_len = DecodeFixed32(data + 8);
    if (payload_len > kNodeCapacity) {
      return NodeCorruption(page.page_no, "payload overruns the page");
    }
    const char* p = data + kNodeHeader;
    v.end_ = p + payload_len;
    uint64_t n_keys;
    if (!ReadVarint(&p, v.end_, &n_keys)) {
      return NodeCorruption(page.page_no, "truncated key count");
    }
    // A leaf entry takes at least 2 bytes (key length, value); an
    // internal node needs 4 bytes per child plus 1 per key length.
    const uint64_t room = static_cast<uint64_t>(v.end_ - p);
    const bool fits = v.is_leaf_ ? n_keys <= room / 2
                                 : room >= 4 && n_keys <= (room - 4) / 5;
    if (!fits) {
      return NodeCorruption(page.page_no, "key count overruns the payload");
    }
    v.num_keys_ = static_cast<uint32_t>(n_keys);
    if (!v.is_leaf_) {
      v.children_ = p;
      p += 4 * (n_keys + 1);
    }
    v.entries_ = p;
    return v;
  }

  bool is_leaf() const { return is_leaf_; }
  PageNo next_leaf() const { return next_leaf_; }
  uint32_t num_keys() const { return num_keys_; }
  /// Internal nodes only: child i, 0 <= i <= num_keys().
  PageNo child(uint32_t i) const { return DecodeFixed32(children_ + 4 * i); }

  /// Reads the entries in key order. Next() returns false after the last
  /// entry or at a malformed one; status() then tells the two apart.
  class Cursor {
   public:
    explicit Cursor(const NodeView& node)
        : node_(node), pos_(node.entries_), left_(node.num_keys_) {}

    bool Next() {
      if (left_ == 0) return false;
      uint64_t len;
      if (!ReadVarint(&pos_, node_.end_, &len) ||
          len > static_cast<uint64_t>(node_.end_ - pos_)) {
        return Fail();
      }
      key_ = Slice(pos_, static_cast<size_t>(len));
      pos_ += len;
      if (node_.is_leaf_ && !ReadVarint(&pos_, node_.end_, &value_)) {
        return Fail();
      }
      --left_;
      return true;
    }
    const Slice& key() const { return key_; }
    /// Leaves only: the current entry's value.
    uint64_t value() const { return value_; }
    Status status() const {
      return corrupt_
                 ? NodeCorruption(node_.page_no_, "entry overruns the payload")
                 : Status::OK();
    }

   private:
    bool Fail() {
      corrupt_ = true;
      left_ = 0;
      return false;
    }

    const NodeView& node_;
    const char* pos_;
    uint32_t left_;
    bool corrupt_ = false;
    Slice key_;
    uint64_t value_ = 0;
  };

  /// Internal nodes only: the child whose subtree may hold `key` (index =
  /// the number of separators <= key).
  Result<uint32_t> ChildIndex(const Slice& key) const {
    uint32_t idx = 0;
    Cursor c(*this);
    while (c.Next() && c.key().compare(key) <= 0) ++idx;
    TCOB_RETURN_NOT_OK(c.status());
    return idx;
  }

  /// The mutable image that Put, Delete and VerifyStructure work on.
  Result<Node> Decode() const {
    Node node;
    node.is_leaf = is_leaf_;
    node.next_leaf = next_leaf_;
    node.keys.reserve(num_keys_);
    if (is_leaf_) {
      node.values.reserve(num_keys_);
    } else {
      node.children.reserve(num_keys_ + 1);
      for (uint32_t i = 0; i <= num_keys_; ++i) {
        node.children.push_back(child(i));
      }
    }
    Cursor c(*this);
    while (c.Next()) {
      node.keys.push_back(c.key().ToString());
      if (is_leaf_) node.values.push_back(c.value());
    }
    TCOB_RETURN_NOT_OK(c.status());
    return node;
  }

 private:
  PageNo page_no_ = kInvalidPageNo;
  bool is_leaf_ = true;
  PageNo next_leaf_ = kInvalidPageNo;
  uint32_t num_keys_ = 0;
  const char* children_ = nullptr;  // internal: (num_keys + 1) x fixed32
  const char* entries_ = nullptr;   // the first key entry
  const char* end_ = nullptr;       // end of the payload
};

/// A node page held pinned, with the reader over its bytes.
struct BTree::PinnedNode {
  PageGuard guard;
  NodeView view;
};

Result<std::unique_ptr<BTree>> BTree::Open(BufferPool* pool,
                                           const std::string& name,
                                           IndexCounters* counters) {
  TCOB_ASSIGN_OR_RETURN(FileId file, pool->disk()->OpenFile(name));
  std::unique_ptr<BTree> tree(new BTree(pool, file, counters));
  TCOB_RETURN_NOT_OK(tree->LoadOrFormat(name));
  return tree;
}

Status BTree::LoadOrFormat(const std::string& name) {
  TCOB_ASSIGN_OR_RETURN(PageNo pages, pool_->disk()->NumPages(file_));
  if (pages == 0) {
    TCOB_ASSIGN_OR_RETURN(Page * meta, pool_->NewPage(file_));
    PageGuard meta_guard(pool_, meta);
    memset(meta->data, 0, kPageSize);
    meta->data[0] = static_cast<char>(PageType::kMeta);
    EncodeFixed32(meta->data + kMetaMagicOff, kBTreeMagic);
    meta_guard.MarkDirty();
    // Empty tree: root is a fresh empty leaf.
    TCOB_ASSIGN_OR_RETURN(root_, AllocNode());
    Node leaf;
    TCOB_RETURN_NOT_OK(WriteNode(root_, leaf));
    entry_count_ = 0;
    return SaveMeta();
  }
  TCOB_ASSIGN_OR_RETURN(Page * meta, pool_->FetchPage(file_, 0));
  PageGuard guard(pool_, meta);
  if (DecodeFixed32(meta->data + kMetaMagicOff) != kBTreeMagic) {
    return Status::Corruption("btree meta magic mismatch in " + name);
  }
  root_ = DecodeFixed32(meta->data + kMetaRootOff);
  entry_count_ = DecodeFixed64(meta->data + kMetaCountOff);
  return Status::OK();
}

Status BTree::SaveMeta() {
  TCOB_ASSIGN_OR_RETURN(Page * meta, pool_->FetchPage(file_, 0));
  PageGuard guard(pool_, meta);
  EncodeFixed32(meta->data + kMetaRootOff, root_);
  EncodeFixed64(meta->data + kMetaCountOff, entry_count_);
  guard.MarkDirty();
  return Status::OK();
}

Result<PageNo> BTree::AllocNode() {
  TCOB_ASSIGN_OR_RETURN(Page * p, pool_->NewPage(file_));
  PageGuard guard(pool_, p);
  p->data[0] = static_cast<char>(PageType::kIndex);
  guard.MarkDirty();
  return p->page_no;
}

Result<BTree::PinnedNode> BTree::Visit(PageNo page) const {
  TCOB_ASSIGN_OR_RETURN(Page * p, pool_->FetchPage(file_, page));
  PageGuard guard(pool_, p);
  if (counters_ != nullptr) counters_->node_visits.Increment();
  TCOB_ASSIGN_OR_RETURN(NodeView view, NodeView::Parse(*p));
  return PinnedNode{std::move(guard), view};
}

Result<BTree::Node> BTree::ReadNode(PageNo page) const {
  TCOB_ASSIGN_OR_RETURN(PinnedNode node, Visit(page));
  return node.view.Decode();
}

Status BTree::WriteNode(PageNo page, const Node& node) {
  std::string payload;
  PutVarint32(&payload, static_cast<uint32_t>(node.keys.size()));
  if (node.is_leaf) {
    for (size_t i = 0; i < node.keys.size(); ++i) {
      PutLengthPrefixed(&payload, node.keys[i]);
      PutVarint64(&payload, node.values[i]);
    }
  } else {
    for (PageNo child : node.children) PutFixed32(&payload, child);
    for (const std::string& key : node.keys) PutLengthPrefixed(&payload, key);
  }
  if (payload.size() > kNodeCapacity) {
    return Status::Internal("btree node overflow: " +
                            std::to_string(payload.size()));
  }
  TCOB_ASSIGN_OR_RETURN(Page * p, pool_->FetchPage(file_, page));
  PageGuard guard(pool_, p);
  p->data[0] = static_cast<char>(PageType::kIndex);
  p->data[1] = node.is_leaf ? 1 : 0;
  EncodeFixed16(p->data + 2, 0);
  EncodeFixed32(p->data + 4, node.next_leaf);
  EncodeFixed32(p->data + 8, static_cast<uint32_t>(payload.size()));
  memcpy(p->data + kNodeHeader, payload.data(), payload.size());
  guard.MarkDirty();
  return Status::OK();
}

size_t BTree::NodeSize(const Node& node) {
  size_t size = VarintLength(node.keys.size());
  for (const std::string& key : node.keys) {
    size += VarintLength(key.size()) + key.size();
  }
  if (node.is_leaf) {
    for (uint64_t v : node.values) size += VarintLength(v);
  } else {
    size += 4 * node.children.size();
  }
  return size;
}

int BTree::LowerBound(const Node& node, const Slice& key) {
  int lo = 0, hi = static_cast<int>(node.keys.size());
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Slice(node.keys[mid]).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

/// Index of the child to descend into for `key` in an internal node:
/// the number of separator keys <= key.
int ChildIndex(const std::vector<std::string>& keys, const Slice& key) {
  int lo = 0, hi = static_cast<int>(keys.size());
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Slice(keys[mid]).compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Result<BTree::SplitResult> BTree::InsertRec(PageNo page, const Slice& key,
                                            uint64_t value, bool* replaced) {
  TCOB_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  if (node.is_leaf) {
    int pos = LowerBound(node, key);
    if (pos < static_cast<int>(node.keys.size()) &&
        Slice(node.keys[pos]) == key) {
      node.values[pos] = value;
      *replaced = true;
    } else {
      node.keys.insert(node.keys.begin() + pos, key.ToString());
      node.values.insert(node.values.begin() + pos, value);
      *replaced = false;
    }
  } else {
    int idx = ChildIndex(node.keys, key);
    TCOB_ASSIGN_OR_RETURN(SplitResult child_split,
                          InsertRec(node.children[idx], key, value, replaced));
    if (!child_split.split) {
      return SplitResult{};
    }
    node.keys.insert(node.keys.begin() + idx, child_split.sep_key);
    node.children.insert(node.children.begin() + idx + 1,
                         child_split.right_page);
  }

  if (NodeSize(node) <= kNodeCapacity) {
    TCOB_RETURN_NOT_OK(WriteNode(page, node));
    return SplitResult{};
  }

  // Split: move the upper half into a fresh right sibling.
  SplitResult result;
  result.split = true;
  Node right;
  right.is_leaf = node.is_leaf;
  if (node.is_leaf) {
    size_t mid = node.keys.size() / 2;
    right.keys.assign(node.keys.begin() + mid, node.keys.end());
    right.values.assign(node.values.begin() + mid, node.values.end());
    node.keys.resize(mid);
    node.values.resize(mid);
    result.sep_key = right.keys.front();
    TCOB_ASSIGN_OR_RETURN(result.right_page, AllocNode());
    right.next_leaf = node.next_leaf;
    node.next_leaf = result.right_page;
  } else {
    size_t mid = node.keys.size() / 2;
    result.sep_key = node.keys[mid];
    right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
    right.children.assign(node.children.begin() + mid + 1,
                          node.children.end());
    node.keys.resize(mid);
    node.children.resize(mid + 1);
    TCOB_ASSIGN_OR_RETURN(result.right_page, AllocNode());
  }
  TCOB_RETURN_NOT_OK(WriteNode(page, node));
  TCOB_RETURN_NOT_OK(WriteNode(result.right_page, right));
  return result;
}

Status BTree::Put(const Slice& key, uint64_t value) {
  if (key.size() > 1024) {
    return Status::InvalidArgument("btree key too long");
  }
  std::unique_lock<std::shared_mutex> lock(latch_);
  bool replaced = false;
  TCOB_ASSIGN_OR_RETURN(SplitResult split,
                        InsertRec(root_, key, value, &replaced));
  if (split.split) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys.push_back(split.sep_key);
    new_root.children.push_back(root_);
    new_root.children.push_back(split.right_page);
    TCOB_ASSIGN_OR_RETURN(PageNo new_root_page, AllocNode());
    TCOB_RETURN_NOT_OK(WriteNode(new_root_page, new_root));
    root_ = new_root_page;
  }
  if (!replaced) ++entry_count_;
  return SaveMeta();
}

Result<BTree::PinnedNode> BTree::FindLeaf(const Slice& key) const {
  PageNo page = root_;
  for (uint32_t depth = 0; depth < kMaxHeight; ++depth) {
    TCOB_ASSIGN_OR_RETURN(PinnedNode node, Visit(page));
    if (node.view.is_leaf()) return node;
    TCOB_ASSIGN_OR_RETURN(uint32_t idx, node.view.ChildIndex(key));
    page = node.view.child(idx);
  }
  return TooDeep();
}

Result<uint64_t> BTree::Get(const Slice& key) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  CountProbe();
  TCOB_ASSIGN_OR_RETURN(PinnedNode leaf, FindLeaf(key));
  NodeView::Cursor c(leaf.view);
  while (c.Next()) {
    const int cmp = c.key().compare(key);
    if (cmp == 0) return c.value();
    if (cmp > 0) break;
  }
  TCOB_RETURN_NOT_OK(c.status());
  return Status::NotFound("btree key absent");
}

Status BTree::Delete(const Slice& key) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  TCOB_ASSIGN_OR_RETURN(PinnedNode pinned, FindLeaf(key));
  const PageNo leaf_page = pinned.guard->page_no;
  TCOB_ASSIGN_OR_RETURN(Node leaf, pinned.view.Decode());
  int pos = LowerBound(leaf, key);
  if (pos >= static_cast<int>(leaf.keys.size()) ||
      Slice(leaf.keys[pos]) != key) {
    return Status::NotFound("btree key absent");
  }
  leaf.keys.erase(leaf.keys.begin() + pos);
  leaf.values.erase(leaf.values.begin() + pos);
  TCOB_RETURN_NOT_OK(WriteNode(leaf_page, leaf));
  --entry_count_;
  return SaveMeta();
}

Status BTree::Scan(
    const Slice& lower, const Slice& upper,
    const std::function<Result<bool>(const Slice&, uint64_t)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  CountProbe();
  return ScanLocked(lower, upper, fn);
}

Status BTree::ScanLocked(
    const Slice& lower, const Slice& upper,
    const std::function<Result<bool>(const Slice&, uint64_t)>& fn) const {
  TCOB_ASSIGN_OR_RETURN(PinnedNode leaf, FindLeaf(lower));
  for (;;) {
    NodeView::Cursor c(leaf.view);
    while (c.Next()) {
      if (c.key().compare(lower) < 0) continue;
      if (!upper.empty() && c.key().compare(upper) >= 0) return Status::OK();
      TCOB_ASSIGN_OR_RETURN(bool keep_going, fn(c.key(), c.value()));
      if (!keep_going) return Status::OK();
    }
    TCOB_RETURN_NOT_OK(c.status());
    if (leaf.view.next_leaf() == kInvalidPageNo) return Status::OK();
    TCOB_ASSIGN_OR_RETURN(leaf, Visit(leaf.view.next_leaf()));
  }
}

Status BTree::ScanPrefix(
    const Slice& prefix,
    const std::function<Result<bool>(const Slice&, uint64_t)>& fn) const {
  // Upper bound: prefix with the last non-0xFF byte incremented.
  std::string upper = prefix.ToString();
  while (!upper.empty() &&
         static_cast<unsigned char>(upper.back()) == 0xFF) {
    upper.pop_back();
  }
  if (!upper.empty()) {
    upper.back() = static_cast<char>(upper.back() + 1);
  }
  std::shared_lock<std::shared_mutex> lock(latch_);
  CountProbe();
  return ScanLocked(prefix, Slice(upper), fn);
}

Result<std::pair<std::string, uint64_t>> BTree::Floor(
    const Slice& target) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  CountProbe();
  std::pair<std::string, uint64_t> floor;
  TCOB_ASSIGN_OR_RETURN(bool found, FloorIn(root_, target, 0, &floor));
  if (!found) return Status::NotFound("no entry <= target");
  return floor;
}

Result<bool> BTree::FloorIn(PageNo page, const Slice& target, uint32_t depth,
                            std::pair<std::string, uint64_t>* out) const {
  if (depth >= kMaxHeight) return TooDeep();
  TCOB_ASSIGN_OR_RETURN(PinnedNode node, Visit(page));
  if (node.view.is_leaf()) {
    bool found = false;
    Slice best;
    uint64_t best_value = 0;
    NodeView::Cursor c(node.view);
    while (c.Next() && c.key().compare(target) <= 0) {
      found = true;
      best = c.key();
      best_value = c.value();
    }
    TCOB_RETURN_NOT_OK(c.status());
    if (found) {
      out->first.assign(best.data(), best.size());
      out->second = best_value;
    }
    return found;
  }
  // Lazy deletes may have emptied the leaves under the child that covers
  // `target`; every child to its left holds only smaller keys, so the
  // floor is the rightmost entry of the nearest one that is not empty.
  TCOB_ASSIGN_OR_RETURN(uint32_t idx, node.view.ChildIndex(target));
  for (uint32_t i = idx + 1; i-- > 0;) {
    TCOB_ASSIGN_OR_RETURN(
        bool found, FloorIn(node.view.child(i), target, depth + 1, out));
    if (found) return true;
  }
  return false;
}

Result<uint32_t> BTree::Height() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  PageNo page = root_;
  for (uint32_t height = 1; height <= kMaxHeight; ++height) {
    TCOB_ASSIGN_OR_RETURN(PinnedNode node, Visit(page));
    if (node.view.is_leaf()) return height;
    page = node.view.child(0);
  }
  return TooDeep();
}

Status BTree::VerifyRec(PageNo page, uint32_t depth, const std::string* lower,
                        const std::string* upper, VerifyState* vs) const {
  if (depth > kMaxHeight) return TooDeep();
  TCOB_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  std::string where = "btree node " + std::to_string(page);
  for (size_t i = 0; i < node.keys.size(); ++i) {
    if (i > 0 && node.keys[i] <= node.keys[i - 1]) {
      return Status::Corruption(where + ": keys out of order at " +
                                std::to_string(i));
    }
    if (lower != nullptr && node.keys[i] < *lower) {
      return Status::Corruption(where + ": key below subtree lower bound");
    }
    if (upper != nullptr && node.keys[i] >= *upper) {
      return Status::Corruption(where + ": key above subtree upper bound");
    }
  }
  if (node.is_leaf) {
    if (!node.children.empty() ||
        node.values.size() != node.keys.size()) {
      return Status::Corruption(where + ": malformed leaf");
    }
    if (vs->leaf_depth == 0) {
      vs->leaf_depth = depth;
    } else if (vs->leaf_depth != depth) {
      return Status::Corruption(where + ": leaf at depth " +
                                std::to_string(depth) + ", expected " +
                                std::to_string(vs->leaf_depth));
    }
    vs->entries += node.keys.size();
    vs->leaves.push_back(page);
    return Status::OK();
  }
  if (node.children.size() != node.keys.size() + 1 || !node.values.empty()) {
    return Status::Corruption(where + ": internal node has " +
                              std::to_string(node.children.size()) +
                              " children for " +
                              std::to_string(node.keys.size()) + " keys");
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    // keys[i] is the lowest key under children[i + 1].
    const std::string* child_lower = i == 0 ? lower : &node.keys[i - 1];
    const std::string* child_upper =
        i < node.keys.size() ? &node.keys[i] : upper;
    TCOB_RETURN_NOT_OK(
        VerifyRec(node.children[i], depth + 1, child_lower, child_upper, vs));
  }
  return Status::OK();
}

Status BTree::VerifyStructure() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  VerifyState vs;
  TCOB_RETURN_NOT_OK(VerifyRec(root_, 1, nullptr, nullptr, &vs));
  if (vs.entries != entry_count_) {
    return Status::Corruption(
        "btree entry count mismatch: meta says " +
        std::to_string(entry_count_) + ", leaves hold " +
        std::to_string(vs.entries));
  }
  // The leaf chain must link the leaves exactly in key order.
  for (size_t i = 0; i < vs.leaves.size(); ++i) {
    TCOB_ASSIGN_OR_RETURN(Node leaf, ReadNode(vs.leaves[i]));
    PageNo expected_next =
        i + 1 < vs.leaves.size() ? vs.leaves[i + 1] : kInvalidPageNo;
    if (leaf.next_leaf != expected_next) {
      return Status::Corruption("btree leaf chain broken at page " +
                                std::to_string(vs.leaves[i]));
    }
  }
  return Status::OK();
}

}  // namespace tcob
