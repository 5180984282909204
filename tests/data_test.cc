// Data generator tests: determinism, distribution shapes, Table I fidelity,
// CoverType surrogate cardinalities.
#include <gtest/gtest.h>

#include <set>

#include "data/covertype.h"
#include "data/generators.h"
#include "data/table1.h"
#include "query/reference.h"

namespace pcube {
namespace {

TEST(GeneratorsTest, DeterministicInSeed) {
  SyntheticConfig config;
  config.num_tuples = 500;
  config.seed = 5;
  Dataset a = GenerateSynthetic(config);
  Dataset b = GenerateSynthetic(config);
  config.seed = 6;
  Dataset c = GenerateSynthetic(config);
  bool same = true, differs = false;
  for (TupleId t = 0; t < 500; ++t) {
    for (int d = 0; d < a.num_pref(); ++d) {
      same &= a.PrefValue(t, d) == b.PrefValue(t, d);
      differs |= a.PrefValue(t, d) != c.PrefValue(t, d);
    }
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(differs);
}

TEST(GeneratorsTest, BoundsAndCardinalities) {
  SyntheticConfig config;
  config.num_tuples = 3000;
  config.num_bool = 4;
  config.bool_cardinality = 17;
  config.seed = 7;
  for (auto dist : {PrefDistribution::kUniform, PrefDistribution::kCorrelated,
                    PrefDistribution::kAntiCorrelated}) {
    config.dist = dist;
    Dataset data = GenerateSynthetic(config);
    for (TupleId t = 0; t < data.num_tuples(); ++t) {
      for (int d = 0; d < data.num_bool(); ++d) {
        EXPECT_LT(data.BoolValue(t, d), 17u);
      }
      for (int d = 0; d < data.num_pref(); ++d) {
        EXPECT_GE(data.PrefValue(t, d), 0.0f);
        EXPECT_LE(data.PrefValue(t, d), 1.0f);
      }
    }
  }
}

TEST(GeneratorsTest, DistributionsOrderSkylineSizes) {
  // The canonical property [2]: |skyline(correlated)| < |skyline(uniform)|
  // < |skyline(anti-correlated)|.
  SyntheticConfig config;
  config.num_tuples = 8000;
  config.num_bool = 1;
  config.num_pref = 3;
  config.seed = 8;
  auto skyline_size = [&](PrefDistribution dist) {
    config.dist = dist;
    Dataset data = GenerateSynthetic(config);
    return NaiveSkyline(data, {}).size();
  };
  size_t corr = skyline_size(PrefDistribution::kCorrelated);
  size_t unif = skyline_size(PrefDistribution::kUniform);
  size_t anti = skyline_size(PrefDistribution::kAntiCorrelated);
  EXPECT_LT(corr, unif);
  EXPECT_LT(unif, anti);
}

TEST(Table1Test, MatchesPaperRows) {
  Dataset data = MakeTable1Dataset();
  EXPECT_EQ(data.num_tuples(), 8u);
  EXPECT_EQ(data.num_bool(), 2);
  EXPECT_EQ(data.num_pref(), 2);
  // Spot-check rows against Table I: t1 = (a1, b1, 0.00, 0.40).
  EXPECT_EQ(data.BoolValue(0, kTable1DimA), 0u);
  EXPECT_EQ(data.BoolValue(0, kTable1DimB), 0u);
  EXPECT_FLOAT_EQ(data.PrefValue(0, 0), 0.00f);
  EXPECT_FLOAT_EQ(data.PrefValue(0, 1), 0.40f);
  // t8 = (a3, b3, 0.85, 0.62).
  EXPECT_EQ(data.BoolValue(7, kTable1DimA), 2u);
  EXPECT_EQ(data.BoolValue(7, kTable1DimB), 2u);
  EXPECT_FLOAT_EQ(data.PrefValue(7, 0), 0.85f);
  // Paths are exactly the Table I column.
  auto entries = Table1TreeEntries();
  EXPECT_EQ(std::get<2>(entries[0]), (std::vector<uint16_t>{1, 1, 1}));
  EXPECT_EQ(std::get<2>(entries[4]), (std::vector<uint16_t>{2, 1, 1}));
  EXPECT_EQ(std::get<2>(entries[7]), (std::vector<uint16_t>{2, 2, 2}));
}

TEST(CoverTypeTest, SurrogateMatchesPublishedShape) {
  CoverTypeConfig config;
  config.num_tuples = 20000;  // scaled for test speed
  Dataset data = GenerateCoverTypeSurrogate(config);
  ASSERT_EQ(data.num_bool(), 12);
  ASSERT_EQ(data.num_pref(), 3);
  const auto& cards = CoverTypeBoolCardinalities();
  EXPECT_EQ(cards[0], 255u);
  EXPECT_EQ(cards[4], 7u);
  EXPECT_EQ(cards[11], 2u);
  // Values stay within cardinality; binary dimensions use both values.
  for (int d = 0; d < 12; ++d) {
    std::set<uint32_t> seen;
    for (TupleId t = 0; t < data.num_tuples(); ++t) {
      uint32_t v = data.BoolValue(t, d);
      EXPECT_LT(v, cards[d]);
      seen.insert(v);
    }
    if (cards[d] == 2) {
      EXPECT_EQ(seen.size(), 2u);
    }
  }
  // Preference values sit on the published grids.
  const auto& pref_cards = CoverTypePrefCardinalities();
  for (TupleId t = 0; t < 200; ++t) {
    for (int d = 0; d < 3; ++d) {
      float v = data.PrefValue(t, d);
      float grid = v * pref_cards[d];
      EXPECT_NEAR(grid, std::round(grid), 1e-3);
    }
  }
}

TEST(CoverTypeTest, SkewedBooleanDistribution) {
  CoverTypeConfig config;
  config.num_tuples = 30000;
  Dataset data = GenerateCoverTypeSurrogate(config);
  // Dimension 0 (card 255) must be skewed: the most frequent decile of
  // values holds far more than 10% of the mass.
  std::vector<uint64_t> counts(255, 0);
  for (TupleId t = 0; t < data.num_tuples(); ++t) {
    ++counts[data.BoolValue(t, 0)];
  }
  uint64_t low_decile = 0;
  for (int v = 0; v < 26; ++v) low_decile += counts[v];
  EXPECT_GT(low_decile, data.num_tuples() / 5);
}

}  // namespace
}  // namespace pcube
