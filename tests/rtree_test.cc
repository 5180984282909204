// R*-tree tests: geometry, node layout, construction (insert / STR bulk /
// explicit), path queries, deletion with stable slots, and the path-change
// reporting that drives incremental P-Cube maintenance.
// pcube-lint: allow-mutation-file(unit tests of the tree's own mutators;
// there is no WriteBatch to route through at this layer)
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "data/generators.h"
#include "data/table1.h"
#include "rtree/node.h"
#include "rtree/rstar_tree.h"

namespace pcube {
namespace {

TEST(GeometryTest, AreaMarginEnlargement) {
  RectF a = RectF::Empty(2);
  a.min = {0, 0};
  a.max = {2, 3};
  a.dims = 2;
  EXPECT_DOUBLE_EQ(a.Area(), 6.0);
  EXPECT_DOUBLE_EQ(a.Margin(), 5.0);
  RectF b = RectF::Point(std::vector<float>{4.0f, 1.0f});
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 4 * 3 - 6);
  a.Expand(b);
  EXPECT_EQ(a.max[0], 4.0f);
}

TEST(GeometryTest, OverlapAndContainment) {
  RectF a = RectF::Empty(2);
  a.min = {0, 0};
  a.max = {2, 2};
  RectF b = RectF::Empty(2);
  b.min = {1, 1};
  b.max = {3, 3};
  EXPECT_DOUBLE_EQ(a.OverlapArea(b), 1.0);
  RectF c = RectF::Empty(2);
  c.min = {5, 5};
  c.max = {6, 6};
  EXPECT_DOUBLE_EQ(a.OverlapArea(c), 0.0);
  std::vector<float> p = {1.5f, 0.5f};
  EXPECT_TRUE(a.ContainsPoint(p));
  EXPECT_FALSE(c.ContainsPoint(p));
  EXPECT_DOUBLE_EQ(b.MinCoordSum(), 2.0);
}

TEST(PathTest, SidMatchesPaperExample) {
  // Paper §IV.B.1 with M = 2: root SID 0, N1 = <1> -> 1, N3 = <1,1> -> 4.
  EXPECT_EQ(PathToSid({}, 2), 0u);
  EXPECT_EQ(PathToSid({1}, 2), 1u);
  EXPECT_EQ(PathToSid({2}, 2), 2u);
  EXPECT_EQ(PathToSid({1, 1}, 2), 4u);
  EXPECT_EQ(PathToSid({1, 2}, 2), 5u);
  EXPECT_EQ(PathToSid({2, 2}, 2), 8u);
}

TEST(PathTest, SidRoundTrip) {
  for (uint32_t m : {2u, 7u, 100u}) {
    for (Path p : std::vector<Path>{{1}, {1, 1}, {2, 1, 2}, {1, 2, 1, 2}}) {
      for (auto& slot : p) slot = std::min<uint16_t>(slot, static_cast<uint16_t>(m));
      uint64_t sid = PathToSid(p, m);
      EXPECT_EQ(SidToPath(sid, m, static_cast<int>(p.size())), p);
    }
  }
  // Random paths up to the longest whose SID stays under PathToSid's 2^58
  // overflow guard; SidLevel recovers the length from the SID alone.
  Random rng(78);
  for (uint32_t m : {2u, 3u, 7u, 100u}) {
    size_t max_len = 0;
    for (double span = m + 1; span < 0x1p58 && max_len < Path::kMaxLength;
         span *= m + 1) {
      ++max_len;
    }
    for (int i = 0; i < 500; ++i) {
      Path p(rng.Uniform(max_len + 1));
      for (auto& slot : p) slot = static_cast<uint16_t>(1 + rng.Uniform(m));
      const uint64_t sid = PathToSid(p, m);
      const int level = static_cast<int>(p.size());
      EXPECT_EQ(SidLevel(sid, m), level);
      EXPECT_EQ(SidToPath(sid, m, level), p) << PathToString(p);
    }
  }
}

TEST(PathTest, SidsUniqueAcrossLevels) {
  // Enumerate all paths of length <= 3 for M = 3; SIDs must be distinct.
  const uint32_t m = 3;
  std::set<uint64_t> sids;
  sids.insert(PathToSid({}, m));
  std::vector<Path> frontier = {{}};
  for (int level = 0; level < 3; ++level) {
    std::vector<Path> next;
    for (const Path& p : frontier) {
      for (uint16_t s = 1; s <= m; ++s) {
        Path q = p;
        q.push_back(s);
        EXPECT_TRUE(sids.insert(PathToSid(q, m)).second) << PathToString(q);
        next.push_back(q);
      }
    }
    frontier = std::move(next);
  }
}

TEST(PathTest, OrderAndEqualityMatchVector) {
  // BuildExplicit relies on a parent sorting before its children, as in
  // std::vector's lexicographic order.
  Random rng(77);
  auto random_slots = [&] {
    std::vector<uint16_t> v(rng.Uniform(Path::kMaxLength + 1));
    for (uint16_t& s : v) s = static_cast<uint16_t>(1 + rng.Uniform(3));
    return v;
  };
  for (int i = 0; i < 4000; ++i) {
    std::vector<uint16_t> a = random_slots();
    std::vector<uint16_t> b = random_slots();
    if (i % 4 == 0) b = a;
    if (i % 4 == 1) b.assign(a.begin(), a.begin() + rng.Uniform(a.size() + 1));
    const Path pa(a.begin(), a.end());
    const Path pb(b.begin(), b.end());
    ASSERT_TRUE(std::equal(pa.begin(), pa.end(), a.begin(), a.end()));
    EXPECT_EQ(pa == pb, a == b);
    EXPECT_EQ(pa < pb, a < b);
    EXPECT_EQ(pb < pa, b < a);
  }
}

TEST(NodeViewTest, LayoutAndSlots) {
  EXPECT_GE(NodeView::MaxEntries(2), 100u);
  EXPECT_LT(NodeView::MaxEntries(5), NodeView::MaxEntries(2));
  Page page;
  NodeView node(&page, 3);
  node.Init(true, 0);
  EXPECT_TRUE(node.is_leaf());
  EXPECT_EQ(node.count(), 0u);
  RectF r = RectF::Point(std::vector<float>{0.1f, 0.2f, 0.3f});
  node.SetEntry(5, r, 42);
  EXPECT_TRUE(node.Valid(5));
  EXPECT_FALSE(node.Valid(4));
  EXPECT_EQ(node.count(), 1u);
  EXPECT_EQ(node.GetId(5), 42u);
  EXPECT_TRUE(node.GetRect(5).Equals(r));
  EXPECT_EQ(node.FirstFreeSlot(), 0u);
  node.ClearEntry(5);
  EXPECT_EQ(node.count(), 0u);
  node.ClearEntry(5);  // clearing twice is a no-op
  EXPECT_EQ(node.count(), 0u);
}

class RTreeFixture : public ::testing::Test {
 protected:
  RTreeFixture() : pool_(&pm_, 4096, &stats_) {}

  Dataset MakeData(uint64_t n, int dp, uint64_t seed) {
    SyntheticConfig config;
    config.num_tuples = n;
    config.num_bool = 1;
    config.num_pref = dp;
    config.bool_cardinality = 4;
    config.seed = seed;
    return GenerateSynthetic(config);
  }

  /// Structural invariants: parent rect == child MBR, level consistency,
  /// every tuple's CollectPaths entry resolves via FindPath.
  void CheckInvariants(const RStarTree& tree, const Dataset& data,
                       const std::set<TupleId>& expect_tids) {
    std::set<TupleId> seen;
    std::map<TupleId, Path> paths;
    ASSERT_TRUE(tree.CollectPaths([&](TupleId tid, const Path& p,
                                      std::span<const float> pt) {
      EXPECT_TRUE(seen.insert(tid).second) << "duplicate tid " << tid;
      EXPECT_EQ(p.size(), static_cast<size_t>(tree.height() + 1));
      for (int d = 0; d < tree.dims(); ++d) {
        EXPECT_FLOAT_EQ(pt[d], data.PrefValue(tid, d));
      }
      paths[tid] = p;
    }).ok());
    EXPECT_EQ(seen, expect_tids);
    EXPECT_EQ(tree.num_entries(), expect_tids.size());
    for (TupleId tid : expect_tids) {
      auto found = tree.FindPath(data.PrefPoint(tid), tid);
      ASSERT_TRUE(found.ok()) << tid;
      EXPECT_EQ(*found, paths[tid]);
    }
    CheckMbrs(tree, tree.root());
  }

  void CheckMbrs(const RStarTree& tree, PageId pid) {
    auto handle = tree.ReadNode(pid);
    ASSERT_TRUE(handle.ok());
    NodeView node(handle->get(), tree.dims());
    if (node.is_leaf()) return;
    for (uint32_t s = 0; s < node.max_entries(); ++s) {
      if (!node.Valid(s)) continue;
      PageId child = node.GetId(s);
      RectF parent_rect = node.GetRect(s);
      {
        auto child_handle = tree.ReadNode(child);
        ASSERT_TRUE(child_handle.ok());
        NodeView cv(child_handle->get(), tree.dims());
        EXPECT_EQ(cv.level() + 1, node.level());
        EXPECT_TRUE(parent_rect.Equals(cv.Mbr()))
            << "parent entry rect != child MBR";
      }
      CheckMbrs(tree, child);
    }
  }

  MemoryPageManager pm_;
  IoStats stats_;
  BufferPool pool_;
};

TEST_F(RTreeFixture, InsertBuildSmallFanout) {
  Dataset data = MakeData(500, 2, 21);
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 8;
  auto tree = RStarTree::BuildByInsertion(&pool_, data, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_GE(tree->height(), 2);
  std::set<TupleId> all;
  for (TupleId t = 0; t < 500; ++t) all.insert(t);
  CheckInvariants(*tree, data, all);
}

TEST_F(RTreeFixture, InsertBuildWithoutReinsert) {
  Dataset data = MakeData(400, 3, 22);
  RTreeOptions options;
  options.dims = 3;
  options.max_entries = 6;
  options.forced_reinsert = false;
  auto tree = RStarTree::BuildByInsertion(&pool_, data, options);
  ASSERT_TRUE(tree.ok());
  std::set<TupleId> all;
  for (TupleId t = 0; t < 400; ++t) all.insert(t);
  CheckInvariants(*tree, data, all);
}

TEST_F(RTreeFixture, BulkLoadStructure) {
  Dataset data = MakeData(2000, 2, 23);
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 16;
  auto tree = RStarTree::BulkLoad(&pool_, data, options);
  ASSERT_TRUE(tree.ok());
  std::set<TupleId> all;
  for (TupleId t = 0; t < 2000; ++t) all.insert(t);
  CheckInvariants(*tree, data, all);
}

TEST_F(RTreeFixture, BulkLoadPageFanout) {
  Dataset data = MakeData(30000, 3, 24);
  RTreeOptions options;
  options.dims = 3;
  auto tree = RStarTree::BulkLoad(&pool_, data, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_entries(), 30000u);
  // Page-derived fanout for 3 dims exceeds 100, so 30k points fit height 2.
  EXPECT_LE(tree->height(), 2);
}

TEST_F(RTreeFixture, ExplicitBuildMatchesTable1) {
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 2;
  auto tree = RStarTree::BuildExplicit(&pool_, options, Table1TreeEntries());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->height(), 2);
  EXPECT_EQ(tree->num_entries(), 8u);
  for (const auto& [tid, point, slots] : Table1TreeEntries()) {
    auto found = tree->FindPath(point, tid);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*found, Path(slots.begin(), slots.end())) << "t" << (tid + 1);
  }
  EXPECT_TRUE(tree->ResolvePath({1}, IoCategory::kRtreeBlock).ok());
  EXPECT_TRUE(tree->ResolvePath({2, 2}, IoCategory::kRtreeBlock).ok());
  EXPECT_FALSE(tree->ResolvePath({3}, IoCategory::kRtreeBlock).ok());
}

// Two tuples under a chain of single-entry nodes, `levels` node levels
// deep (M = 2): every path is <1, ..., 1, s>.
std::vector<RStarTree::ExplicitEntry> DeepChain(size_t levels) {
  std::vector<RStarTree::ExplicitEntry> entries;
  for (uint16_t s = 1; s <= 2; ++s) {
    std::vector<uint16_t> slots(levels, 1);
    slots.back() = s;
    entries.emplace_back(s, std::vector<float>{0.1f * s, 0.5f}, slots);
  }
  return entries;
}

TEST_F(RTreeFixture, TreeDeeperThanPathCapacityFailsTyped) {
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 2;
  auto too_deep = RStarTree::BuildExplicit(&pool_, options,
                                           DeepChain(Path::kMaxLength + 1));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kOutOfRange)
      << too_deep.status().ToString();

  // At the limit the build succeeds and full-length paths resolve.
  auto tree =
      RStarTree::BuildExplicit(&pool_, options, DeepChain(Path::kMaxLength));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(static_cast<size_t>(tree->height()) + 1, Path::kMaxLength);
  const std::vector<float> point{0.2f, 0.5f};
  auto found = tree->FindPath(point, 2);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->size(), Path::kMaxLength);

  // An insert that could split the root (one leaf split for the new entry
  // plus one per forced re-insertion) is refused before any page changes.
  Status refused = tree->Insert(std::vector<float>{0.3f, 0.5f}, 99, nullptr);
  EXPECT_EQ(refused.code(), StatusCode::kOutOfRange) << refused.ToString();
  EXPECT_EQ(tree->num_entries(), 2u);
  EXPECT_EQ(static_cast<size_t>(tree->height()) + 1, Path::kMaxLength);
  std::vector<std::string> problems;
  ASSERT_TRUE(tree->CheckStructure(&problems).ok());
  EXPECT_TRUE(problems.empty()) << problems.front();

  // Without forced re-insertion one leaf split cannot reach the single-entry
  // root, so the same insert is accepted and the depth stays at the limit.
  options.forced_reinsert = false;
  auto no_reinsert =
      RStarTree::BuildExplicit(&pool_, options, DeepChain(Path::kMaxLength));
  ASSERT_TRUE(no_reinsert.ok());
  ASSERT_TRUE(no_reinsert->Insert(std::vector<float>{0.3f, 0.5f}, 99, nullptr)
                  .ok());
  EXPECT_EQ(no_reinsert->num_entries(), 3u);
  EXPECT_EQ(static_cast<size_t>(no_reinsert->height()) + 1, Path::kMaxLength);

  // BulkLoad and BuildGridPartition call the same check before each level
  // they add (reaching it through them takes more than 2^25 rows).
  EXPECT_TRUE(RStarTree::CheckHeight(Path::kMaxLength - 1).ok());
  EXPECT_EQ(RStarTree::CheckHeight(Path::kMaxLength).code(),
            StatusCode::kOutOfRange);
}

TEST_F(RTreeFixture, DeleteKeepsOtherPathsStable) {
  Dataset data = MakeData(300, 2, 25);
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 8;
  auto tree = RStarTree::BuildByInsertion(&pool_, data, options);
  ASSERT_TRUE(tree.ok());

  std::map<TupleId, Path> before;
  ASSERT_TRUE(tree->CollectPaths(
      [&](TupleId tid, const Path& p, std::span<const float>) {
        before[tid] = p;
      }).ok());

  std::set<TupleId> remaining;
  for (TupleId t = 0; t < 300; ++t) remaining.insert(t);
  Random rng(4);
  TupleId first_victim = 0;
  for (int i = 0; i < 100; ++i) {
    TupleId victim =
        *std::next(remaining.begin(),
                   static_cast<long>(rng.Uniform(remaining.size())));
    if (i == 0) first_victim = victim;
    PathChangeSet changes;
    ASSERT_TRUE(tree->Delete(data.PrefPoint(victim), victim, &changes).ok());
    remaining.erase(victim);
    ASSERT_EQ(changes.changes.size(), 1u);
    EXPECT_TRUE(changes.changes[0].deleted);
    EXPECT_EQ(changes.changes[0].old_path, before[victim]);
  }
  // Survivors keep their exact paths (free-entry model, paper §IV.B.3).
  ASSERT_TRUE(tree->CollectPaths(
      [&](TupleId tid, const Path& p, std::span<const float>) {
        EXPECT_EQ(p, before[tid]) << "path moved for tid " << tid;
      }).ok());
  CheckInvariants(*tree, data, remaining);
  // Deleting an already-deleted tuple fails cleanly.
  EXPECT_FALSE(
      tree->Delete(data.PrefPoint(first_victim), first_victim, nullptr).ok());
}

TEST_F(RTreeFixture, InsertReportsAccuratePathChanges) {
  Dataset data = MakeData(600, 2, 26);
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 8;
  auto tree = RStarTree::Create(&pool_, options);
  ASSERT_TRUE(tree.ok());
  for (TupleId t = 0; t < 300; ++t) {
    ASSERT_TRUE(tree->Insert(data.PrefPoint(t), t, nullptr).ok());
  }
  for (TupleId t = 300; t < 600; ++t) {
    std::map<TupleId, Path> before;
    ASSERT_TRUE(tree->CollectPaths(
        [&](TupleId tid, const Path& p, std::span<const float>) {
          before[tid] = p;
        }).ok());
    PathChangeSet changes;
    ASSERT_TRUE(tree->Insert(data.PrefPoint(t), t, &changes).ok());
    std::map<TupleId, Path> after;
    ASSERT_TRUE(tree->CollectPaths(
        [&](TupleId tid, const Path& p, std::span<const float>) {
          after[tid] = p;
        }).ok());

    if (changes.root_split) continue;  // everything changed; consumers rebuild

    std::set<TupleId> reported;
    for (const PathChange& c : changes.changes) {
      reported.insert(c.tid);
      ASSERT_TRUE(c.has_new);
      EXPECT_EQ(c.new_path, after[c.tid]) << "tid " << c.tid;
      if (c.has_old) {
        EXPECT_EQ(c.old_path, before[c.tid]) << "tid " << c.tid;
      } else {
        EXPECT_EQ(c.tid, t);  // only the new tuple lacks an old path
      }
    }
    for (const auto& [tid, path] : after) {
      auto it = before.find(tid);
      if (it == before.end() || it->second != path) {
        EXPECT_TRUE(reported.count(tid) > 0)
            << "unreported path change for tid " << tid;
      }
    }
  }
}

TEST_F(RTreeFixture, MixedInsertDeleteBatchChanges) {
  Dataset data = MakeData(400, 2, 27);
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 8;
  auto tree = RStarTree::Create(&pool_, options);
  ASSERT_TRUE(tree.ok());
  for (TupleId t = 0; t < 200; ++t) {
    ASSERT_TRUE(tree->Insert(data.PrefPoint(t), t, nullptr).ok());
  }
  std::map<TupleId, Path> before;
  ASSERT_TRUE(tree->CollectPaths(
      [&](TupleId tid, const Path& p, std::span<const float>) {
        before[tid] = p;
      }).ok());

  // One batch: insert 100 new, delete 50 old.
  PathChangeSet changes;
  for (TupleId t = 200; t < 300; ++t) {
    ASSERT_TRUE(tree->Insert(data.PrefPoint(t), t, &changes).ok());
  }
  for (TupleId t = 0; t < 50; ++t) {
    ASSERT_TRUE(tree->Delete(data.PrefPoint(t), t, &changes).ok());
  }
  if (changes.root_split) GTEST_SKIP() << "root split in batch";

  std::map<TupleId, Path> after;
  ASSERT_TRUE(tree->CollectPaths(
      [&](TupleId tid, const Path& p, std::span<const float>) {
        after[tid] = p;
      }).ok());
  std::set<TupleId> reported;
  for (const PathChange& c : changes.changes) {
    reported.insert(c.tid);
    if (c.deleted) {
      EXPECT_EQ(after.count(c.tid), 0u);
      if (c.has_old) {
        EXPECT_EQ(c.old_path, before[c.tid]);
      }
    } else {
      ASSERT_TRUE(c.has_new) << c.tid;
      EXPECT_EQ(c.new_path, after[c.tid]);
    }
  }
  for (const auto& [tid, path] : after) {
    if (reported.count(tid) == 0) {
      EXPECT_EQ(before.at(tid), path);
    }
  }
}

}  // namespace
}  // namespace pcube
