// Signature union/intersection tests, anchored on the paper's Fig. 3
// assembling example ((A=a2), (B=b2) over Table I) plus randomized
// equivalence properties: algebra output == directly-built signature of the
// combined predicate.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/signature_algebra.h"
#include "core/signature_builder.h"
#include "data/generators.h"
#include "data/table1.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace pcube {
namespace {

Signature Table1Signature(const PredicateSet& preds) {
  Dataset data = MakeTable1Dataset();
  Signature sig(2, 3);
  for (const auto& [tid, point, slots] : Table1TreeEntries()) {
    const Path path(slots.begin(), slots.end());
    if (preds.Matches(data, tid)) sig.SetPath(path);
  }
  return sig;
}

TEST(SignatureAlgebraTest, Fig3WorkedExample) {
  // A = a2 holds t2 <1,1,2>, t6 <2,1,2>; B = b2 holds t2 <1,1,2>,
  // t7 <2,2,1>.
  Signature a2 = Table1Signature({{kTable1DimA, 1}});
  Signature b2 = Table1Signature({{kTable1DimB, 1}});
  EXPECT_EQ(a2.Node(0)->ToString(), "11");  // SID 0: the root
  EXPECT_EQ(b2.Node(0)->ToString(), "11");

  // Union (A=a2 or B=b2): tuples t2, t6, t7.
  Signature u = SignatureUnion(a2, b2);
  EXPECT_EQ(u.Node(0)->ToString(), "11");
  EXPECT_TRUE(u.Test({1, 1, 2}));  // t2
  EXPECT_TRUE(u.Test({2, 1, 2}));  // t6
  EXPECT_TRUE(u.Test({2, 2, 1}));  // t7
  EXPECT_FALSE(u.Test({1, 1, 1}));
  EXPECT_FALSE(u.Test({2, 2, 2}));

  // Intersection (A=a2 and B=b2): only t2. The paper's Fig. 3c: the root
  // becomes "10" because the bit-and at the root ("11") is cleaned up by the
  // empty child intersection under N2.
  Signature i = SignatureIntersect(a2, b2);
  EXPECT_EQ(i.Node(0)->ToString(), "10");
  EXPECT_TRUE(i.Test({1, 1, 2}));
  EXPECT_FALSE(i.Test({2}));
  EXPECT_FALSE(i.Test({2, 1, 2}));
  EXPECT_FALSE(i.Test({2, 2, 1}));

  // The recursive intersection equals the directly-built composite cell.
  Signature direct =
      Table1Signature({{kTable1DimA, 1}, {kTable1DimB, 1}});
  EXPECT_TRUE(i.Equals(direct));
}

TEST(SignatureAlgebraTest, UnionWithEmpty) {
  Signature a(2, 2);
  a.SetPath({1, 2});
  Signature empty(2, 2);
  Signature u = SignatureUnion(a, empty);
  EXPECT_TRUE(u.Test({1, 2}));
  EXPECT_EQ(u.CountBits(), a.CountBits());
  Signature i = SignatureIntersect(a, empty);
  EXPECT_TRUE(i.Empty());
}

TEST(SignatureAlgebraTest, IntersectIsExactNotJustBitAnd) {
  // Two cells that share an inner node but no tuple: plain bit-and would
  // leave the inner bit set; the recursive intersection must clear it.
  Signature a(2, 3), b(2, 3);
  a.SetPath({1, 1, 1});
  b.SetPath({1, 1, 2});
  Signature i = SignatureIntersect(a, b);
  EXPECT_TRUE(i.Empty()) << i.ToString();
  EXPECT_FALSE(i.Test({1}));
}

class AlgebraPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgebraPropertyTest, MatchesDirectBuildOnRealTree) {
  MemoryPageManager pm;
  IoStats stats;
  BufferPool pool(&pm, 4096, &stats);
  Random rng(GetParam());
  SyntheticConfig config;
  config.num_tuples = 800;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 100 + GetParam();
  Dataset data = GenerateSynthetic(config);
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 4 + static_cast<uint32_t>(rng.Uniform(8));
  auto tree = RStarTree::BuildByInsertion(&pool, data, options);
  ASSERT_TRUE(tree.ok());
  auto paths = PathTable::Collect(*tree);
  ASSERT_TRUE(paths.ok());
  int levels = tree->height() + 1;

  for (uint32_t va = 0; va < 3; ++va) {
    for (uint32_t vb = 0; vb < 3; ++vb) {
      Signature sa = BuildCellSignature(data, *paths, {{0, va}},
                                        tree->fanout(), levels);
      Signature sb = BuildCellSignature(data, *paths, {{1, vb}},
                                        tree->fanout(), levels);
      Signature both = BuildCellSignature(data, *paths, {{0, va}, {1, vb}},
                                          tree->fanout(), levels);
      Signature i = SignatureIntersect(sa, sb);
      EXPECT_TRUE(i.Equals(both))
          << "va=" << va << " vb=" << vb << "\nintersect:\n"
          << i.ToString() << "\ndirect:\n"
          << both.ToString();

      // Union equals the signature of tuples matching either predicate.
      Signature u = SignatureUnion(sa, sb);
      Signature either(tree->fanout(), levels);
      for (TupleId t = 0; t < data.num_tuples(); ++t) {
        if (data.BoolValue(t, 0) == va || data.BoolValue(t, 1) == vb) {
          either.SetPath(paths->path(t));
        }
      }
      EXPECT_TRUE(u.Equals(either)) << "va=" << va << " vb=" << vb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraPropertyTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace pcube
