// SignatureStore + SignatureCursor tests: persistence round-trips, rewrites
// with tombstones, lazy cursor loading with exact SSig page accounting.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/bloom_store.h"
#include "core/signature_cursor.h"
#include "core/signature_store.h"

namespace pcube {
namespace {

Signature RandomSignature(uint32_t m, int levels, int paths, uint64_t seed) {
  Random rng(seed);
  Signature sig(m, levels);
  for (int i = 0; i < paths; ++i) {
    Path p(levels);
    for (auto& s : p) s = static_cast<uint16_t>(1 + rng.Uniform(m));
    sig.SetPath(p);
  }
  return sig;
}

/// Payload size of `sig`'s only partial.
size_t OnlyPartialSize(const Signature& sig) {
  auto partials = DecomposeSignature(sig, SignatureStore::kMaxPayload);
  EXPECT_EQ(partials.size(), 1u);
  return partials.empty() ? size_t{0} : partials[0].bytes.size();
}

/// Adds `n` random tuple paths to a 3-level signature of fanout `m`.
void AddRandomPaths(Signature* sig, uint32_t m, int n, Random* rng) {
  for (int i = 0; i < n; ++i) {
    Path p(3);
    for (auto& slot : p) slot = static_cast<uint16_t>(1 + rng->Uniform(m));
    sig->SetPath(p);
  }
}

TEST(SignatureStoreLimitsTest, SidBitsBindNoLaterThanPathCapacity) {
  // At the smallest fanout, M = 2, the deepest node of a Path::kMaxLength-
  // level tree (path length kMaxLength - 1) still has a SID inside the key
  // budget, and one level more would not: kSidBits, not Path, is what
  // limits the depth (at larger M it binds earlier still).
  Path deepest(Path::kMaxLength - 1);
  for (auto& slot : deepest) slot = 2;
  EXPECT_LE(PathToSid(deepest, 2), SignatureStore::kMaxSid);
  deepest.push_back(2);
  EXPECT_GT(PathToSid(deepest, 2), SignatureStore::kMaxSid);
}

class SignatureStoreTest : public ::testing::Test {
 protected:
  SignatureStoreTest() : pool_(&pm_, 4096, &stats_) {}

  MemoryPageManager pm_;
  IoStats stats_;
  BufferPool pool_;
};

TEST_F(SignatureStoreTest, PutLoadFullRoundTrip) {
  auto store = SignatureStore::Create(&pool_);
  ASSERT_TRUE(store.ok());
  Signature sig = RandomSignature(5, 3, 200, 41);
  ASSERT_TRUE(store->Put(77, sig).ok());
  auto loaded = store->LoadFull(77, 5, 3);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Equals(sig));
  EXPECT_TRUE(*store->HasCell(77));
  EXPECT_FALSE(*store->HasCell(78));
  auto missing = store->LoadFull(78, 5, 3);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->Empty());
}

TEST_F(SignatureStoreTest, RewriteReplacesAndTombstones) {
  auto store = SignatureStore::Create(&pool_);
  ASSERT_TRUE(store.ok());
  Signature big = RandomSignature(40, 3, 40000, 42);
  ASSERT_TRUE(store->Put(5, big).ok());
  auto sids_before = store->ListPartials(5);
  ASSERT_TRUE(sids_before.ok());
  EXPECT_GT(sids_before->size(), 1u);

  Signature small(40, 3);
  small.SetPath({1, 1, 1});
  ASSERT_TRUE(store->Put(5, small).ok());
  auto loaded = store->LoadFull(5, 40, 3);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Equals(small));
  auto sids_after = store->ListPartials(5);
  ASSERT_TRUE(sids_after.ok());
  EXPECT_EQ(sids_after->size(), 1u);

  // Tombstoned partials must be invisible.
  for (uint64_t sid : *sids_before) {
    if (sid != (*sids_after)[0]) {
      EXPECT_TRUE(store->LoadPartial(5, sid).status().IsNotFound());
    }
  }
  // Rewriting to empty removes the cell entirely.
  Signature empty(40, 3);
  ASSERT_TRUE(store->Put(5, empty).ok());
  EXPECT_FALSE(*store->HasCell(5));
}

TEST_F(SignatureStoreTest, GrownPartialEndingItsPageGrowsInPlace) {
  auto store = SignatureStore::Create(&pool_);
  ASSERT_TRUE(store.ok());
  Random rng(44);
  Signature sig = RandomSignature(5, 3, 20, 43);
  ASSERT_TRUE(store->Put(9, sig).ok());
  // The cell's only partial is the last blob on the append page, so each
  // larger version takes over the page's tail instead of leaving its old
  // bytes behind: the append cursor ends where the partial ends.
  for (int round = 0; round < 4; ++round) {
    const size_t before = OnlyPartialSize(sig);
    AddRandomPaths(&sig, 5, 8, &rng);
    ASSERT_GT(OnlyPartialSize(sig), before);
    ASSERT_TRUE(store->Put(9, sig).ok());
    EXPECT_EQ(store->append_offset(), OnlyPartialSize(sig));
    auto loaded = store->LoadFull(9, 5, 3);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->Equals(sig));
  }
  // Once another cell's partial follows it, a larger version must move,
  // and takes kGrowthRoom along.
  Signature other = RandomSignature(5, 3, 20, 45);
  ASSERT_TRUE(store->Put(10, other).ok());
  const uint32_t tail = store->append_offset();
  AddRandomPaths(&sig, 5, 8, &rng);
  ASSERT_TRUE(store->Put(9, sig).ok());
  EXPECT_EQ(store->append_offset(),
            tail + OnlyPartialSize(sig) + SignatureStore::kGrowthRoom);
  for (auto [cell, want] : {std::pair{9, &sig}, std::pair{10, &other}}) {
    auto loaded = store->LoadFull(cell, 5, 3);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->Equals(*want)) << "cell " << cell;
  }
}

TEST_F(SignatureStoreTest, OutgrownMidPagePartialMovesOnceThenGrowsInPlace) {
  auto store = SignatureStore::Create(&pool_);
  ASSERT_TRUE(store.ok());
  constexpr uint32_t kM = 16;  // ~5 B per node: room for a dozen new nodes
  Random rng(48);
  Signature sig = RandomSignature(kM, 3, 10, 49);
  ASSERT_TRUE(store->Put(1, sig).ok());
  // Cells 2, 3, ... are appended as we go, so cell 1's partial never ends
  // its page's blobs: only its growth room lets it grow in place.
  std::vector<Signature> others;
  auto put_other = [&] {
    others.push_back(RandomSignature(kM, 3, 5, 100 + others.size()));
    return store->Put(2 + others.size() - 1, others.back());
  };
  auto expect_all_exact = [&](const char* when) {
    auto loaded = store->LoadFull(1, kM, 3);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->Equals(sig)) << when;
    for (size_t i = 0; i < others.size(); ++i) {
      auto other = store->LoadFull(2 + i, kM, 3);
      ASSERT_TRUE(other.ok());
      EXPECT_TRUE(other->Equals(others[i])) << when << ", cell " << 2 + i;
    }
  };
  ASSERT_TRUE(put_other().ok());

  // First growth past the built slot: one move, room reserved after it.
  const size_t built = OnlyPartialSize(sig);
  for (int i = 0; i < 50 && OnlyPartialSize(sig) <= built; ++i) {
    AddRandomPaths(&sig, kM, 1, &rng);
  }
  const size_t moved = OnlyPartialSize(sig);
  ASSERT_GT(moved, built);
  uint32_t before = store->append_offset();
  ASSERT_TRUE(store->Put(1, sig).ok());
  EXPECT_EQ(store->append_offset(),
            before + moved + SignatureStore::kGrowthRoom);
  expect_all_exact("after the move");

  // Every later version that fits the room is written in place, while
  // other cells' partials keep following it.
  int grown_in_place = 0;
  bool outgrown = false;
  for (int i = 0; i < 100 && !outgrown; ++i) {
    const size_t previous = OnlyPartialSize(sig);
    AddRandomPaths(&sig, kM, 1, &rng);
    outgrown = OnlyPartialSize(sig) > moved + SignatureStore::kGrowthRoom;
    if (outgrown) break;
    if (OnlyPartialSize(sig) > previous) ++grown_in_place;
    ASSERT_TRUE(put_other().ok());
    before = store->append_offset();
    ASSERT_TRUE(store->Put(1, sig).ok());
    EXPECT_EQ(store->append_offset(), before) << "moved again";
    expect_all_exact("after an in-place growth");
  }
  ASSERT_TRUE(outgrown);
  EXPECT_GE(grown_in_place, 3);

  // Past its room it moves again, with fresh room.
  before = store->append_offset();
  ASSERT_TRUE(store->Put(1, sig).ok());
  EXPECT_EQ(store->append_offset(),
            before + OnlyPartialSize(sig) + SignatureStore::kGrowthRoom);
  expect_all_exact("after the second move");
}

TEST_F(SignatureStoreTest, ShrunkPartialRegrowsIntoItsOwnBytes) {
  auto store = SignatureStore::Create(&pool_);
  ASSERT_TRUE(store.ok());
  Random rng(52);
  std::vector<Path> paths(20, Path(3));
  Signature sig(5, 3);
  for (Path& p : paths) {
    for (auto& slot : p) slot = static_cast<uint16_t>(1 + rng.Uniform(5));
    sig.SetPath(p);
  }
  ASSERT_TRUE(store->Put(1, sig).ok());
  Signature other = RandomSignature(5, 3, 20, 54);
  ASSERT_TRUE(store->Put(2, other).ok());  // cell 1's slot is mid-page
  const size_t built = OnlyPartialSize(sig);
  const uint32_t tail = store->append_offset();

  // Drop tuples until the partial is smaller, then grow it back: every
  // version up to the built size fits the slot's own bytes.
  Signature shrunk = sig.Clone();
  for (const Path& p : paths) {
    shrunk.ClearPath(p);
    if (OnlyPartialSize(shrunk) < built) break;
  }
  ASSERT_LT(OnlyPartialSize(shrunk), built);
  for (const Signature* version : {&shrunk, &sig}) {
    ASSERT_TRUE(store->Put(1, *version).ok());
    EXPECT_EQ(store->append_offset(), tail) << "moved";
    auto loaded = store->LoadFull(1, 5, 3);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->Equals(*version));
  }
  auto loaded = store->LoadFull(2, 5, 3);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Equals(other));
}

TEST_F(SignatureStoreTest, ManyCellsCoexist) {
  auto store = SignatureStore::Create(&pool_);
  ASSERT_TRUE(store.ok());
  std::vector<Signature> sigs;
  for (uint64_t c = 0; c < 30; ++c) {
    sigs.push_back(RandomSignature(4, 3, 50, 400 + c));
    ASSERT_TRUE(store->Put(1000 + c, sigs.back()).ok());
  }
  for (uint64_t c = 0; c < 30; ++c) {
    auto loaded = store->LoadFull(1000 + c, 4, 3);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->Equals(sigs[c])) << "cell " << c;
  }
}

TEST_F(SignatureStoreTest, CursorMatchesSignature) {
  auto store = SignatureStore::Create(&pool_);
  ASSERT_TRUE(store.ok());
  Signature sig = RandomSignature(4, 3, 120, 43);
  ASSERT_TRUE(store->Put(9, sig).ok());

  SignatureCursor cursor(&*store, 9, 4, 3);
  Random rng(44);
  for (int i = 0; i < 2000; ++i) {
    size_t len = 1 + rng.Uniform(3);
    Path p(len);
    for (auto& s : p) s = static_cast<uint16_t>(1 + rng.Uniform(4));
    auto got = cursor.Test(p);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, sig.Test(p)) << PathToString(p);
  }
}

TEST_F(SignatureStoreTest, CursorOnEmptyCellPrunesEverything) {
  auto store = SignatureStore::Create(&pool_);
  ASSERT_TRUE(store.ok());
  SignatureCursor cursor(&*store, 12345, 4, 3);
  auto got = cursor.Test({1, 1, 1});
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);
  EXPECT_EQ(cursor.partials_loaded(), 0u);
}

TEST_F(SignatureStoreTest, CursorLoadsPartialsLazily) {
  auto store = SignatureStore::Create(&pool_);
  ASSERT_TRUE(store.ok());
  // A wide signature over a large fanout forces many partials.
  Signature sig = RandomSignature(120, 3, 60000, 45);
  ASSERT_TRUE(store->Put(3, sig).ok());
  auto all_sids = store->ListPartials(3);
  ASSERT_TRUE(all_sids.ok());
  ASSERT_GT(all_sids->size(), 3u);

  SignatureCursor cursor(&*store, 3, 120, 3);
  // Probing one shallow path loads at most a couple of partials, not all.
  Path probe = {1, 1, 1};
  ASSERT_TRUE(cursor.Test(probe).ok());
  EXPECT_LT(cursor.partials_loaded(), all_sids->size());
  EXPECT_GE(cursor.partials_loaded(), 1u);

  // Exhaustive agreement after arbitrary probing order.
  Random rng(46);
  for (int i = 0; i < 3000; ++i) {
    size_t len = 1 + rng.Uniform(3);
    Path p(len);
    for (auto& s : p) s = static_cast<uint16_t>(1 + rng.Uniform(120));
    auto got = cursor.Test(p);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, sig.Test(p)) << PathToString(p);
  }
}

TEST_F(SignatureStoreTest, CursorPageLoadsChargeSignatureCategory) {
  auto store = SignatureStore::Create(&pool_);
  ASSERT_TRUE(store.ok());
  Signature sig = RandomSignature(8, 3, 400, 47);
  ASSERT_TRUE(store->Put(6, sig).ok());
  ASSERT_TRUE(pool_.Clear().ok());
  stats_.Reset();
  SignatureCursor cursor(&*store, 6, 8, 3);
  ASSERT_TRUE(cursor.Test({1, 1, 1}).ok());
  EXPECT_EQ(stats_.ReadCount(IoCategory::kSignature), cursor.partials_loaded());
  EXPECT_GT(stats_.ReadCount(IoCategory::kBtree), 0u);  // directory lookups
}

TEST_F(SignatureStoreTest, BloomRewriteReusesPagesAndReadsOnlyItsOwn) {
  BloomStore bloom(&pool_);
  Signature small = RandomSignature(40, 3, 100, 50);
  Signature big = RandomSignature(40, 3, 6000, 51);
  auto pages_read = [&](const Signature& sig) {
    uint64_t read = 0;
    auto filter = bloom.Load(7, &read);
    EXPECT_TRUE(filter.ok());
    if (!filter.ok()) return read;
    for (const auto& [sid, bits] : sig.nodes()) {  // no false negative
      for (size_t bit = bits.FindNextSet(0); bit < bits.size();
           bit = bits.FindNextSet(bit + 1)) {
        EXPECT_TRUE(filter->MayContain(sid * 41 + bit + 1)) << sid;
      }
    }
    return read;
  };
  // Rewrites of an equally sized filter stay on the cell's page.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bloom.Put(7, small, 10.0).ok());
    EXPECT_EQ(bloom.num_pages(), 1u);
    EXPECT_EQ(pages_read(small), 1u);
  }
  // A larger filter adds only the pages it lacks...
  ASSERT_TRUE(bloom.Put(7, big, 10.0).ok());
  const uint64_t big_pages = bloom.num_pages();
  EXPECT_GT(big_pages, 1u);
  EXPECT_EQ(pages_read(big), big_pages);
  // ... a smaller one keeps them as spares and reads only its own ...
  ASSERT_TRUE(bloom.Put(7, small, 10.0).ok());
  EXPECT_EQ(bloom.num_pages(), big_pages);
  EXPECT_EQ(pages_read(small), 1u);
  // ... which the next larger filter reuses.
  ASSERT_TRUE(bloom.Put(7, big, 10.0).ok());
  EXPECT_EQ(bloom.num_pages(), big_pages);
  EXPECT_EQ(pages_read(big), big_pages);
}

}  // namespace
}  // namespace pcube
