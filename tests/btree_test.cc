#include "index/btree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "common/temp_dir.h"
#include "storage/slotted_page.h"

namespace tcob {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dm = DiskManager::Open(dir_.path() + "/db");
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(dm).value();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 256);
    auto tree = BTree::Open(pool_.get(), "tree");
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();
  }

  static std::string Key(uint64_t v) {
    std::string k;
    PutComparableU64(&k, v);
    return k;
  }

  TempDir dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, PutGetSingle) {
  ASSERT_TRUE(tree_->Put("alpha", 1).ok());
  EXPECT_EQ(tree_->Get("alpha").value(), 1u);
  EXPECT_TRUE(tree_->Get("beta").status().IsNotFound());
  EXPECT_EQ(tree_->Size(), 1u);
}

TEST_F(BTreeTest, PutOverwrites) {
  ASSERT_TRUE(tree_->Put("k", 1).ok());
  ASSERT_TRUE(tree_->Put("k", 2).ok());
  EXPECT_EQ(tree_->Get("k").value(), 2u);
  EXPECT_EQ(tree_->Size(), 1u);
}

TEST_F(BTreeTest, DeleteRemoves) {
  ASSERT_TRUE(tree_->Put("k", 1).ok());
  ASSERT_TRUE(tree_->Delete("k").ok());
  EXPECT_TRUE(tree_->Get("k").status().IsNotFound());
  EXPECT_TRUE(tree_->Delete("k").IsNotFound());
  EXPECT_EQ(tree_->Size(), 0u);
}

TEST_F(BTreeTest, ManyEntriesForceSplits) {
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i * 7919 % 100003), i).ok());
  }
  EXPECT_GT(tree_->Height().value(), 1u);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(tree_->Get(Key(i * 7919 % 100003)).value(),
              static_cast<uint64_t>(i));
  }
}

TEST_F(BTreeTest, ScanRangeInOrder) {
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i * 2), i).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_
                  ->Scan(Key(100), Key(200),
                         [&](const Slice& key, uint64_t v) -> Result<bool> {
                           seen.push_back(DecodeComparableU64(key.data()));
                           (void)v;
                           return true;
                         })
                  .ok());
  ASSERT_EQ(seen.size(), 50u);  // even keys in [100, 200)
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 198u);
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_LT(seen[i - 1], seen[i]);
}

TEST_F(BTreeTest, ScanUnboundedUpper) {
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(tree_->Put(Key(i), i).ok());
  size_t count = 0;
  ASSERT_TRUE(tree_
                  ->Scan(Key(90), Slice(),
                         [&](const Slice&, uint64_t) -> Result<bool> {
                           ++count;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(count, 10u);
}

TEST_F(BTreeTest, ScanPrefix) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree_->Put("aa" + std::to_string(i), i).ok());
    ASSERT_TRUE(tree_->Put("ab" + std::to_string(i), i).ok());
  }
  size_t count = 0;
  ASSERT_TRUE(tree_
                  ->ScanPrefix("aa",
                               [&](const Slice& key, uint64_t) -> Result<bool> {
                                 EXPECT_TRUE(key.starts_with(Slice("aa")));
                                 ++count;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(count, 10u);
}

TEST_F(BTreeTest, FloorSemantics) {
  for (uint64_t i = 10; i <= 100; i += 10) {
    ASSERT_TRUE(tree_->Put(Key(i), i).ok());
  }
  EXPECT_EQ(tree_->Floor(Key(55)).value().second, 50u);
  EXPECT_EQ(tree_->Floor(Key(50)).value().second, 50u);  // exact hit
  EXPECT_EQ(tree_->Floor(Key(1000)).value().second, 100u);
  EXPECT_TRUE(tree_->Floor(Key(5)).status().IsNotFound());
}

TEST_F(BTreeTest, FloorAcrossLeafBoundaries) {
  // Enough entries to create many leaves; probe floors exhaustively.
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i * 3), i).ok());
  }
  for (uint64_t probe = 0; probe < 6000; probe += 7) {
    auto floor = tree_->Floor(Key(probe));
    ASSERT_TRUE(floor.ok());
    uint64_t key = DecodeComparableU64(floor.value().first.data());
    EXPECT_EQ(key, probe - probe % 3);
  }
}

TEST_F(BTreeTest, PersistsAcrossReopen) {
  for (uint64_t i = 0; i < 2000; ++i) ASSERT_TRUE(tree_->Put(Key(i), i).ok());
  ASSERT_TRUE(pool_->FlushAll().ok());
  tree_.reset();
  pool_ = std::make_unique<BufferPool>(disk_.get(), 256);
  tree_ = BTree::Open(pool_.get(), "tree").value();
  EXPECT_EQ(tree_->Size(), 2000u);
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(tree_->Get(Key(i)).value(), i);
  }
}

TEST_F(BTreeTest, VariableLengthKeys) {
  Random rng(55);
  std::map<std::string, uint64_t> reference;
  for (int i = 0; i < 2000; ++i) {
    std::string key = rng.NextString(1 + rng.Uniform(60));
    reference[key] = rng.Next();
    ASSERT_TRUE(tree_->Put(key, reference[key]).ok());
  }
  for (const auto& [key, value] : reference) {
    ASSERT_EQ(tree_->Get(key).value(), value);
  }
  // Full scan returns everything in lexicographic order.
  std::vector<std::string> keys;
  ASSERT_TRUE(tree_
                  ->Scan(Slice(""), Slice(),
                         [&](const Slice& key, uint64_t) -> Result<bool> {
                           keys.push_back(key.ToString());
                           return true;
                         })
                  .ok());
  ASSERT_EQ(keys.size(), reference.size());
  auto it = reference.begin();
  for (size_t i = 0; i < keys.size(); ++i, ++it) {
    EXPECT_EQ(keys[i], it->first);
  }
}

TEST_F(BTreeTest, RandomizedAgainstReference) {
  Random rng(777);
  std::map<std::string, uint64_t> reference;
  for (int step = 0; step < 8000; ++step) {
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 7 || reference.empty()) {
      std::string key = Key(rng.Uniform(3000));
      uint64_t value = rng.Next();
      ASSERT_TRUE(tree_->Put(key, value).ok());
      reference[key] = value;
    } else {
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      ASSERT_TRUE(tree_->Delete(it->first).ok());
      reference.erase(it);
    }
  }
  ASSERT_EQ(tree_->Size(), reference.size());
  for (const auto& [key, value] : reference) {
    ASSERT_EQ(tree_->Get(key).value(), value);
  }
  // Probe deleted keys.
  for (uint64_t i = 0; i < 3000; i += 13) {
    std::string key = Key(i);
    if (reference.count(key) == 0) {
      ASSERT_TRUE(tree_->Get(key).status().IsNotFound());
    }
  }
}

TEST_F(BTreeTest, FloorSkipsEmptiedLeaves) {
  // Lazy deletes empty whole leaves; a Floor whose descent lands in one
  // must back up to the nearest entry on its left.
  std::map<std::string, uint64_t> reference;
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree_->Put(Key(2 * i), i).ok());
    reference[Key(2 * i)] = i;
  }
  for (uint64_t i = 1000; i < 2000; ++i) {
    ASSERT_TRUE(tree_->Delete(Key(2 * i)).ok());
    reference.erase(Key(2 * i));
  }
  ASSERT_TRUE(tree_->VerifyStructure().ok());
  for (uint64_t target = 0; target < 6000; ++target) {
    auto expected = std::prev(reference.upper_bound(Key(target)));
    auto floor = tree_->Floor(Key(target));
    ASSERT_TRUE(floor.ok()) << "target " << target << ": "
                            << floor.status().ToString();
    ASSERT_EQ(floor->first, expected->first) << "target " << target;
    ASSERT_EQ(floor->second, expected->second) << "target " << target;
  }
}

/// Every read path against std::map: Get, Floor, Scan (with early stop)
/// and ScanPrefix, over keys of 1-24 bytes from an alphabet that holds
/// 0x00 and 0xFF, so that many keys are prefixes of others.
TEST_F(BTreeTest, InPlaceReadsMatchReferenceAfterSplitsAndDeletes) {
  Random rng(2024);
  const char kAlphabet[] = {'\x00', '\x01', 'a', 'b', '\x7f', '\x80',
                            '\xfe', '\xff'};
  auto random_key = [&] {
    std::string key(1 + rng.Uniform(24), '\0');
    for (char& c : key) c = kAlphabet[rng.Uniform(sizeof(kAlphabet))];
    return key;
  };
  std::map<std::string, uint64_t> reference;

  auto check = [&](const char* phase) {
    SCOPED_TRACE(phase);
    ASSERT_EQ(tree_->Size(), reference.size());
    ASSERT_TRUE(tree_->VerifyStructure().ok());
    for (const auto& [key, value] : reference) {
      Result<uint64_t> got = tree_->Get(key);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got.value(), value);
    }
    for (int probe = 0; probe < 600; ++probe) {
      const std::string target = random_key();
      SCOPED_TRACE(testing::PrintToString(target));
      auto hit = reference.find(target);
      Result<uint64_t> got = tree_->Get(target);
      if (hit == reference.end()) {
        ASSERT_TRUE(got.status().IsNotFound()) << got.status().ToString();
      } else {
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got.value(), hit->second);
      }

      auto floor = tree_->Floor(target);
      auto above = reference.upper_bound(target);
      if (above == reference.begin()) {
        ASSERT_TRUE(floor.status().IsNotFound());
      } else {
        ASSERT_TRUE(floor.ok()) << floor.status().ToString();
        ASSERT_EQ(floor->first, std::prev(above)->first);
        ASSERT_EQ(floor->second, std::prev(above)->second);
      }

      // [target, upper), stopped after 40 entries.
      const std::string upper = probe % 3 == 0 ? std::string() : random_key();
      std::vector<std::pair<std::string, uint64_t>> scanned, expected;
      ASSERT_TRUE(tree_
                      ->Scan(target, upper,
                             [&](const Slice& k, uint64_t v) -> Result<bool> {
                               scanned.emplace_back(k.ToString(), v);
                               return scanned.size() < 40;
                             })
                      .ok());
      for (auto it = reference.lower_bound(target);
           it != reference.end() && expected.size() < 40 &&
           (upper.empty() || it->first < upper);
           ++it) {
        expected.emplace_back(*it);
      }
      ASSERT_EQ(scanned, expected);

      const std::string prefix = target.substr(0, 1 + rng.Uniform(3));
      scanned.clear();
      expected.clear();
      ASSERT_TRUE(tree_
                      ->ScanPrefix(prefix,
                                   [&](const Slice& k, uint64_t v)
                                       -> Result<bool> {
                                     scanned.emplace_back(k.ToString(), v);
                                     return true;
                                   })
                      .ok());
      for (auto it = reference.lower_bound(prefix);
           it != reference.end() && Slice(it->first).starts_with(prefix);
           ++it) {
        expected.emplace_back(*it);
      }
      ASSERT_EQ(scanned, expected);
    }
  };

  for (int i = 0; i < 4000; ++i) {
    const std::string key = random_key();
    const uint64_t value = rng.Next() >> rng.Uniform(64);
    ASSERT_TRUE(tree_->Put(key, value).ok());
    reference[key] = value;
  }
  ASSERT_GT(tree_->Height().value(), 1u);
  check("after splits");

  // Delete a contiguous run of keys, which empties whole leaves, and a
  // random tenth of the rest.
  std::vector<std::string> keys;
  for (const auto& [key, value] : reference) keys.push_back(key);
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool in_run = i >= keys.size() / 4 && i < keys.size() / 2;
    if (in_run || rng.Uniform(10) == 0) {
      ASSERT_TRUE(tree_->Delete(keys[i]).ok());
      reference.erase(keys[i]);
    }
  }
  check("after deletes");
}

/// Corrupt node pages must read as Corruption through every read path,
/// and no read may look past the payload: each edit leaves bytes after
/// the payload that would parse, so a reader that overran would answer.
class BTreeCorruptionTest : public BTreeTest {
 protected:
  /// A one-leaf tree: a→1, b→2, c→3. The root leaf is page 1; its
  /// payload is [03][01 'a' 01][01 'b' 02][01 'c' 03], 10 bytes.
  void SetUp() override {
    BTreeTest::SetUp();
    for (const char* k : {"a", "b", "c"}) {
      ASSERT_TRUE(tree_->Put(k, static_cast<uint64_t>(k[0] - 'a' + 1)).ok());
    }
  }

  /// Applies `edit` to the bytes of node page `page` in the pool.
  void EditNode(PageNo page, const std::function<void(char*)>& edit) {
    Page* p = pool_->FetchPage(tree_->file_id(), page).value();
    edit(p->data);
    pool_->Unpin(p, /*dirty=*/false);
  }

  /// Every read that must reach past the last entry fails as Corruption.
  void ExpectCorruptionEverywhere() {
    auto scan = [&](const Slice& lower) {
      return tree_->Scan(lower, Slice(),
                         [](const Slice&, uint64_t) -> Result<bool> {
                           return true;
                         });
    };
    auto prefix = tree_->ScanPrefix(
        "c", [](const Slice&, uint64_t) -> Result<bool> { return true; });
    Result<uint64_t> get = tree_->Get("d");
    auto floor = tree_->Floor("d");
    Status full = scan("");
    EXPECT_TRUE(get.status().IsCorruption()) << get.status().ToString();
    EXPECT_TRUE(floor.status().IsCorruption()) << floor.status().ToString();
    EXPECT_TRUE(full.IsCorruption()) << full.ToString();
    EXPECT_TRUE(prefix.IsCorruption()) << prefix.ToString();
  }
};

TEST_F(BTreeCorruptionTest, IntactLeafReadsBack) {
  EXPECT_EQ(tree_->Get("c").value(), 3u);
  EXPECT_EQ(tree_->Floor("d").value().second, 3u);
  EXPECT_TRUE(tree_->Get("d").status().IsNotFound());
}

TEST_F(BTreeCorruptionTest, PayloadLengthBeyondDataArea) {
  EditNode(1, [](char* d) { EncodeFixed32(d + 8, kPageDataSize - 12 + 1); });
  ExpectCorruptionEverywhere();
  EXPECT_TRUE(tree_->Height().status().IsCorruption());
}

TEST_F(BTreeCorruptionTest, TruncatedVarint) {
  // The last value's varint claims a continuation byte past the payload.
  EditNode(1, [](char* d) { d[12 + 9] = static_cast<char>(0x83); });
  ExpectCorruptionEverywhere();
}

TEST_F(BTreeCorruptionTest, TruncatedKeyCount) {
  EditNode(1, [](char* d) {
    d[12] = static_cast<char>(0x80);
    EncodeFixed32(d + 8, 1);
  });
  ExpectCorruptionEverywhere();
}

TEST_F(BTreeCorruptionTest, KeyLengthPastPayload) {
  // "c" claims 5 bytes where 2 remain ('c' and its value).
  EditNode(1, [](char* d) { d[12 + 7] = 5; });
  ExpectCorruptionEverywhere();
}

TEST_F(BTreeCorruptionTest, OversizedKeyCount) {
  // More keys than the payload could hold at two bytes each.
  EditNode(1, [](char* d) { d[12] = 0x7f; });
  ExpectCorruptionEverywhere();
  // Four keys fit that bound, but the fourth entry would start exactly
  // at the payload end.
  EditNode(1, [](char* d) { d[12] = 4; });
  ExpectCorruptionEverywhere();
}

TEST_F(BTreeCorruptionTest, OversizedKeyCountInInternalNode) {
  for (uint64_t i = 0; i < 2000; ++i) ASSERT_TRUE(tree_->Put(Key(i), i).ok());
  ASSERT_GT(tree_->Height().value(), 1u);
  Page* meta = pool_->FetchPage(tree_->file_id(), 0).value();
  const PageNo root = DecodeFixed32(meta->data + 12);
  pool_->Unpin(meta, false);
  // 127 separators need 4 * 128 bytes of child pointers alone, more than
  // this root's payload holds.
  EditNode(root, [](char* d) {
    ASSERT_LT(DecodeFixed32(d + 8), 4u * 128);
    ASSERT_LT(static_cast<uint8_t>(d[12]), 0x80);
    d[12] = 0x7f;
  });
  EXPECT_TRUE(tree_->Get(Key(5)).status().IsCorruption());
  EXPECT_TRUE(tree_->Floor(Key(5)).status().IsCorruption());
  EXPECT_TRUE(tree_->Height().status().IsCorruption());
}

/// In-place readers beside a writer whose Puts split leaves and internal
/// nodes: every reader sees either the old or the new state of each key
/// (run under TSan in CI).
TEST_F(BTreeTest, ConcurrentInPlaceReadsBesideSplittingWriter) {
  constexpr uint64_t kPreloaded = 500;
  constexpr uint64_t kWritten = 6000;
  for (uint64_t i = 0; i < kPreloaded; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i * 2), i).ok());
  }
  std::atomic<bool> done{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Random rng(100 + r);
      // Bounded, yielding loops: the tree latch prefers readers, so four
      // readers spinning without pause could starve the writer.
      for (int iter = 0; iter < 2000 && !done.load(std::memory_order_acquire);
           ++iter) {
        std::this_thread::yield();
        const uint64_t i = rng.Uniform(kPreloaded);
        // Preloaded keys never change.
        Result<uint64_t> got = tree_->Get(Key(i * 2));
        if (!got.ok() || got.value() != i) ++failures;
        // The floor of an odd key is a preloaded even key or a newer odd
        // key, never absent.
        auto floor = tree_->Floor(Key(i * 2 + 1));
        if (!floor.ok()) ++failures;
        size_t seen = 0;
        Status s = tree_->ScanPrefix(
            Key(i * 2).substr(0, 7),
            [&](const Slice&, uint64_t) -> Result<bool> {
              ++seen;
              return true;
            });
        if (!s.ok() || seen == 0) ++failures;
      }
    });
  }
  for (uint64_t i = 0; i < kWritten; ++i) {
    if (!tree_->Put(Key(i * 2 + 1), i).ok()) {
      ++failures;
      break;
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(tree_->Size(), kPreloaded + kWritten);
  EXPECT_TRUE(tree_->VerifyStructure().ok());
}

}  // namespace
}  // namespace tcob
