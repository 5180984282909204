// Unit + property tests for BitVector.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "bitmap/bitvector.h"
#include "common/random.h"

namespace pcube {
namespace {

TEST(BitVectorTest, StartsAllZero) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.Count(), 0u);
  EXPECT_FALSE(v.AnySet());
  for (size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.Get(i));
}

TEST(BitVectorTest, SetClearAssign) {
  BitVector v(70);
  v.Set(0);
  v.Set(63);
  v.Set(64);
  v.Set(69);
  EXPECT_EQ(v.Count(), 4u);
  EXPECT_TRUE(v.Get(63));
  v.Clear(63);
  EXPECT_FALSE(v.Get(63));
  v.Assign(5, true);
  v.Assign(0, false);
  EXPECT_TRUE(v.Get(5));
  EXPECT_FALSE(v.Get(0));
  EXPECT_EQ(v.Count(), 3u);
}

TEST(BitVectorTest, FindNextSet) {
  BitVector v(200);
  v.Set(3);
  v.Set(64);
  v.Set(199);
  EXPECT_EQ(v.FindNextSet(0), 3u);
  EXPECT_EQ(v.FindNextSet(3), 3u);
  EXPECT_EQ(v.FindNextSet(4), 64u);
  EXPECT_EQ(v.FindNextSet(65), 199u);
  EXPECT_EQ(v.FindNextSet(200), 200u);
  BitVector empty(50);
  EXPECT_EQ(empty.FindNextSet(0), 50u);
}

TEST(BitVectorTest, SetPositionsMatchesIteration) {
  BitVector v(130);
  std::vector<uint32_t> expect = {0, 1, 31, 32, 63, 64, 127, 129};
  for (uint32_t p : expect) v.Set(p);
  EXPECT_EQ(v.SetPositions(), expect);
}

TEST(BitVectorTest, OrAndEquality) {
  BitVector a(80), b(80);
  a.Set(1);
  a.Set(70);
  b.Set(1);
  b.Set(2);
  BitVector u = a;
  u.InplaceOr(b);
  EXPECT_EQ(u.SetPositions(), (std::vector<uint32_t>{1, 2, 70}));
  BitVector i = a;
  i.InplaceAnd(b);
  EXPECT_EQ(i.SetPositions(), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
}

TEST(BitVectorTest, ToStringBitOrder) {
  BitVector v(5);
  v.Set(0);
  v.Set(3);
  EXPECT_EQ(v.ToString(), "10010");
}

// Property sweep: random operations tracked against a std::set oracle.
class BitVectorPropertyTest : public ::testing::TestWithParam<int> {};

// Random Set/Clear operations on `v`, mirrored in `oracle`; a set lands
// with probability 1/set_odds, so the final density is about that.
void RandomFill(Random* rng, uint64_t set_odds, BitVector* v,
                std::set<size_t>* oracle) {
  for (int op = 0; op < 2000; ++op) {
    size_t i = rng->Uniform(v->size());
    if (rng->Uniform(set_odds) == 0) {
      v->Set(i);
      oracle->insert(i);
    } else {
      v->Clear(i);
      oracle->erase(i);
    }
  }
}

std::vector<uint32_t> Positions(const std::set<size_t>& s) {
  return std::vector<uint32_t>(s.begin(), s.end());
}

TEST_P(BitVectorPropertyTest, MatchesSetOracle) {
  Random rng(GetParam());
  size_t n = 1 + rng.Uniform(300);
  BitVector v(n);
  std::set<size_t> oracle;
  RandomFill(&rng, 2, &v, &oracle);
  EXPECT_EQ(v.Count(), oracle.size());
  EXPECT_EQ(v.AnySet(), !oracle.empty());
  EXPECT_EQ(v.SetPositions(), Positions(oracle));
  // FindNextSet agrees with the oracle from every starting point.
  for (size_t from = 0; from <= n; ++from) {
    auto it = oracle.lower_bound(from);
    size_t expected = (it == oracle.end()) ? n : *it;
    EXPECT_EQ(v.FindNextSet(from), expected);
  }

  // The bulk operations against a second, sparser vector of the same length.
  BitVector w(n);
  std::set<size_t> w_oracle;
  RandomFill(&rng, 4, &w, &w_oracle);
  std::set<size_t> both, either;
  std::set_intersection(oracle.begin(), oracle.end(), w_oracle.begin(),
                        w_oracle.end(), std::inserter(both, both.end()));
  std::set_union(oracle.begin(), oracle.end(), w_oracle.begin(),
                 w_oracle.end(), std::inserter(either, either.end()));

  BitVector and_bits = v;
  EXPECT_EQ(and_bits.InplaceAnd(w), !both.empty());
  EXPECT_EQ(and_bits.SetPositions(), Positions(both));
  EXPECT_EQ(and_bits.Count(), both.size());
  EXPECT_EQ(and_bits.AnySet(), !both.empty());

  BitVector or_bits = v;
  or_bits.InplaceOr(w);
  EXPECT_EQ(or_bits.SetPositions(), Positions(either));
  EXPECT_EQ(or_bits.Count(), either.size());
  EXPECT_EQ(or_bits.AnySet(), !either.empty());

  // AND with v's complement clears every bit, and says so.
  BitVector complement(n);
  for (size_t i = 0; i < n; ++i) {
    if (!oracle.contains(i)) complement.Set(i);
  }
  BitVector cleared = v;
  EXPECT_FALSE(cleared.InplaceAnd(complement));
  EXPECT_EQ(cleared.Count(), 0u);
  EXPECT_FALSE(cleared.AnySet());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVectorPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace pcube
