// Signature tests, anchored on the paper's worked example: the (A=a1)
// signature of Fig. 2 computed from Table I / Fig. 1, plus Set/Clear/Test
// properties against a brute-force oracle.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "core/signature.h"
#include "core/signature_builder.h"
#include "data/generators.h"
#include "data/table1.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace pcube {
namespace {

// Signature of one cell over Table I's tree (M = 2, 3 node levels).
Signature Table1CellSignature(int dim, uint32_t value) {
  Dataset data = MakeTable1Dataset();
  Signature sig(2, 3);
  for (const auto& [tid, point, slots] : Table1TreeEntries()) {
    const Path path(slots.begin(), slots.end());
    if (data.BoolValue(tid, dim) == value) sig.SetPath(path);
  }
  return sig;
}

TEST(SignatureTest, Fig2WorkedExample) {
  // Cell A = a1 holds t1 <1,1,1> and t3 <1,2,1>. Fig. 2a shows the bit
  // arrays: root "10", N1 "11", N3 "10", N4 "10"; no arrays under N2. With
  // M = 2 the SIDs are root 0, N1 <1> 1, N2 <2> 2, N3 <1,1> 4, N4 <1,2> 5.
  Signature sig = Table1CellSignature(kTable1DimA, 0);
  EXPECT_EQ(sig.CountNodes(), 4u);
  const std::map<uint64_t, std::string> fig2a = {
      {0, "10"}, {1, "11"}, {4, "10"}, {5, "10"}};
  for (const auto& [sid, bits] : fig2a) {
    const BitVector* node = sig.Node(sid);
    ASSERT_NE(node, nullptr) << "SID " << sid;
    EXPECT_EQ(node->ToString(), bits) << "SID " << sid;
  }
  EXPECT_EQ(sig.Node(2), nullptr);

  // Test() on every node and tuple path.
  EXPECT_TRUE(sig.Test({1}));
  EXPECT_FALSE(sig.Test({2}));
  EXPECT_TRUE(sig.Test({1, 1}));
  EXPECT_TRUE(sig.Test({1, 2}));
  EXPECT_TRUE(sig.Test({1, 1, 1}));   // t1
  EXPECT_FALSE(sig.Test({1, 1, 2}));  // t2 is a2
  EXPECT_TRUE(sig.Test({1, 2, 1}));   // t3
  EXPECT_FALSE(sig.Test({2, 1, 1}));  // t5
}

TEST(SignatureTest, InsertionOrderDoesNotMatter) {
  Signature a(4, 3), b(4, 3);
  std::vector<Path> paths = {{1, 2, 3}, {4, 4, 4}, {1, 2, 1}, {2, 1, 1}};
  for (const Path& p : paths) a.SetPath(p);
  for (auto it = paths.rbegin(); it != paths.rend(); ++it) b.SetPath(*it);
  EXPECT_TRUE(a.Equals(b));
}

TEST(SignatureTest, ClearPathInvertsSetPath) {
  Signature sig(3, 3);
  sig.SetPath({1, 2, 3});
  sig.SetPath({1, 2, 1});
  sig.SetPath({2, 1, 1});
  // Remove one path; the shared prefix must survive.
  sig.ClearPath({1, 2, 3});
  EXPECT_TRUE(sig.Test({1, 2, 1}));
  EXPECT_FALSE(sig.Test({1, 2, 3}));
  EXPECT_TRUE(sig.Test({1, 2}));
  // Remove the second path under <1,2>: the whole branch must vanish.
  sig.ClearPath({1, 2, 1});
  EXPECT_FALSE(sig.Test({1, 2}));
  EXPECT_FALSE(sig.Test({1}));
  EXPECT_EQ(sig.Node(PathToSid({1}, 3)), nullptr);
  EXPECT_TRUE(sig.Test({2, 1, 1}));
  sig.ClearPath({2, 1, 1});
  EXPECT_TRUE(sig.Empty());
}

TEST(SignatureTest, ClearMissingPathIsNoOp) {
  Signature sig(3, 2);
  sig.SetPath({1, 1});
  Signature copy = sig.Clone();
  sig.ClearPath({2, 2});
  sig.ClearPath({1, 3});
  EXPECT_TRUE(sig.Equals(copy));
}

TEST(SignatureTest, CloneIsDeep) {
  Signature sig(3, 2);
  sig.SetPath({1, 1});
  Signature copy = sig.Clone();
  sig.SetPath({2, 2});
  EXPECT_FALSE(copy.Test({2, 2}));
  EXPECT_TRUE(sig.Test({2, 2}));
}

TEST(SignatureTest, CountsAndToString) {
  Signature sig(2, 3);
  sig.SetPath({1, 1, 1});
  sig.SetPath({1, 2, 1});
  // Bits: root{1}, <1>{1,2}, <1,1>{1}, <1,2>{1} = 5 set bits, 4 arrays.
  EXPECT_EQ(sig.CountBits(), 5u);
  EXPECT_EQ(sig.CountNodes(), 4u);
  EXPECT_NE(sig.ToString().find("<1,2>: 10"), std::string::npos);
}

// Property: Test(path) over a signature built from random tuple paths equals
// the brute-force "does any inserted path have this prefix" oracle.
class SignaturePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SignaturePropertyTest, MatchesPrefixOracle) {
  Random rng(GetParam());
  const uint32_t m = 2 + rng.Uniform(5);
  const int levels = 2 + static_cast<int>(rng.Uniform(3));
  Signature sig(m, levels);
  std::set<Path> inserted;
  for (int i = 0; i < 200; ++i) {
    Path p(levels);
    for (auto& s : p) s = static_cast<uint16_t>(1 + rng.Uniform(m));
    sig.SetPath(p);
    inserted.insert(p);
  }
  // Remove a random subset again.
  std::vector<Path> all(inserted.begin(), inserted.end());
  for (size_t i = 0; i < all.size() / 2; ++i) {
    sig.ClearPath(all[i]);
    inserted.erase(all[i]);
  }
  auto oracle = [&](const Path& prefix) {
    for (const Path& p : inserted) {
      if (std::equal(prefix.begin(), prefix.end(), p.begin())) return true;
    }
    return false;
  };
  // Exhaustively check all prefixes up to full depth (m^levels is small).
  std::vector<Path> frontier = {{}};
  for (int level = 0; level < levels; ++level) {
    std::vector<Path> next;
    for (const Path& p : frontier) {
      for (uint16_t s = 1; s <= m; ++s) {
        Path q = p;
        q.push_back(s);
        EXPECT_EQ(sig.Test(q), oracle(q)) << PathToString(q);
        next.push_back(q);
      }
    }
    frontier = std::move(next);
    if (frontier.size() > 5000) break;  // cap the exhaustive sweep
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignaturePropertyTest, ::testing::Range(0, 10));

// End-to-end: signatures built from a real R-tree agree with a brute-force
// check against the tree's node containment.
TEST(SignatureTest, BuilderMatchesTreeContainment) {
  MemoryPageManager pm;
  IoStats stats;
  BufferPool pool(&pm, 4096, &stats);
  SyntheticConfig config;
  config.num_tuples = 1500;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 5;
  config.seed = 9;
  Dataset data = GenerateSynthetic(config);
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 8;
  auto tree = RStarTree::BuildByInsertion(&pool, data, options);
  ASSERT_TRUE(tree.ok());
  auto paths = PathTable::Collect(*tree);
  ASSERT_TRUE(paths.ok());

  for (int dim = 0; dim < 2; ++dim) {
    auto sigs = BuildAtomicCuboidSignatures(data, *paths, dim, tree->fanout(),
                                            tree->height() + 1);
    for (uint32_t v = 0; v < 5; ++v) {
      // Oracle: set of all prefixes of paths of tuples with value v.
      std::set<Path> present;
      for (TupleId t = 0; t < data.num_tuples(); ++t) {
        if (data.BoolValue(t, dim) != v) continue;
        const Path& p = paths->path(t);
        for (size_t len = 1; len <= p.size(); ++len) {
          present.insert(Path(p.begin(), p.begin() + len));
        }
      }
      for (TupleId t = 0; t < data.num_tuples(); t += 13) {
        const Path& p = paths->path(t);
        for (size_t len = 1; len <= p.size(); ++len) {
          Path prefix(p.begin(), p.begin() + len);
          EXPECT_EQ(sigs[v].Test(prefix), present.count(prefix) > 0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace pcube
