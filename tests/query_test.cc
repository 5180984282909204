// Query engine tests: signature-based skyline and top-k (Algorithm 1) must
// return exactly the naive reference answers across data distributions,
// predicate counts, preference-dimension subsets, ranking functions and k.
#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "data/generators.h"
#include "query/reference.h"
#include "run_signature.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

struct QueryCase {
  PrefDistribution dist;
  int num_preds;
};

class QueryEngineTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  std::unique_ptr<Workbench> MakeWorkbench(PrefDistribution dist,
                                           uint64_t seed, int dp = 2) {
    SyntheticConfig config;
    config.num_tuples = 3000;
    config.num_bool = 3;
    config.num_pref = dp;
    config.bool_cardinality = 4;
    config.dist = dist;
    config.seed = seed;
    WorkbenchOptions options;
    options.rtree.max_entries = 10;
    options.rtree_by_insertion = true;
    auto wb = Workbench::Build(GenerateSynthetic(config), options);
    PCUBE_CHECK(wb.ok());
    return std::move(*wb);
  }

  PredicateSet MakePreds(int n, Random* rng) {
    PredicateSet preds;
    for (int i = 0; i < n; ++i) {
      preds.Add({i, static_cast<uint32_t>(rng->Uniform(4))});
    }
    return preds;
  }
};

TEST_P(QueryEngineTest, SkylineMatchesNaive) {
  auto [dist_int, num_preds] = GetParam();
  PrefDistribution dist = static_cast<PrefDistribution>(dist_int);
  auto wb = MakeWorkbench(dist, 900 + dist_int * 10 + num_preds);
  Random rng(dist_int * 100 + num_preds);
  for (int trial = 0; trial < 4; ++trial) {
    PredicateSet preds = MakePreds(num_preds, &rng);
    auto out = RunSignature(*wb, QueryRequest::Skyline(preds));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->tids, NaiveSkyline(wb->data(), preds)) << preds.ToString();
  }
}

TEST_P(QueryEngineTest, TopKMatchesNaive) {
  auto [dist_int, num_preds] = GetParam();
  PrefDistribution dist = static_cast<PrefDistribution>(dist_int);
  auto wb = MakeWorkbench(dist, 950 + dist_int * 10 + num_preds);
  Random rng(dist_int * 200 + num_preds);
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.7, 0.3});
  for (size_t k : {1u, 10u, 50u}) {
    PredicateSet preds = MakePreds(num_preds, &rng);
    auto out = RunSignature(*wb, QueryRequest::TopK(preds, f, k));
    ASSERT_TRUE(out.ok());
    auto naive = NaiveTopK(wb->data(), preds, *f, k);
    ASSERT_EQ(out->scores.size(), naive.size()) << preds.ToString();
    for (size_t i = 0; i < naive.size(); ++i) {
      // Scores must agree exactly; ids may differ under score ties.
      EXPECT_DOUBLE_EQ(out->scores[i], naive[i].second) << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndPredicates, QueryEngineTest,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(0, 1, 3)));

TEST(QueryEngineSingleTest, SkylineOnPrefDimSubset) {
  SyntheticConfig config;
  config.num_tuples = 2000;
  config.num_bool = 2;
  config.num_pref = 3;
  config.bool_cardinality = 3;
  config.seed = 31;
  WorkbenchOptions options;
  options.rtree.max_entries = 10;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb.ok());
  PredicateSet preds{{0, 1}};
  for (std::vector<int> dims :
       {std::vector<int>{0, 1}, std::vector<int>{1, 2}, std::vector<int>{2}}) {
    SkylineQueryOptions options;
    options.pref_dims = dims;
    auto out = RunSignature(**wb, QueryRequest::Skyline(preds, options));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->tids, NaiveSkyline((*wb)->data(), preds, dims));
  }
}

TEST(QueryEngineSingleTest, WeightedL2TopKMatchesNaive) {
  SyntheticConfig config;
  config.num_tuples = 2500;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 32;
  WorkbenchOptions options;
  options.rtree.max_entries = 12;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb.ok());
  // Example 1: distance to an expectation point.
  auto f = std::make_shared<WeightedL2Ranking>(std::vector<double>{0.4, 0.7},
                                               std::vector<double>{1.0, 2.5});
  PredicateSet preds{{1, 2}};
  auto out = RunSignature(**wb, QueryRequest::TopK(preds, f, 20));
  ASSERT_TRUE(out.ok());
  auto naive = NaiveTopK((*wb)->data(), preds, *f, 20);
  ASSERT_EQ(out->scores.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(out->scores[i], naive[i].second, 1e-9);
  }
}

TEST(QueryEngineSingleTest, MinkowskiRankingMatchesNaive) {
  SyntheticConfig config;
  config.num_tuples = 1500;
  config.num_bool = 1;
  config.num_pref = 2;
  config.bool_cardinality = 2;
  config.seed = 33;
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb.ok());
  auto f = std::make_shared<MinkowskiRanking>(
      std::vector<double>{0.2, 0.8}, std::vector<double>{1.0, 1.0}, 3.0);
  auto out = RunSignature(**wb, QueryRequest::TopK({{0, 1}}, f, 15));
  ASSERT_TRUE(out.ok());
  auto naive = NaiveTopK((*wb)->data(), {{0, 1}}, *f, 15);
  ASSERT_EQ(out->scores.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(out->scores[i], naive[i].second, 1e-9);
  }
}

TEST(QueryEngineSingleTest, EmptyCellReturnsNothingCheaply) {
  SyntheticConfig config;
  config.num_tuples = 2000;
  config.num_bool = 1;
  config.num_pref = 2;
  config.bool_cardinality = 1000;  // most values unused
  config.seed = 34;
  WorkbenchOptions options;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb.ok());
  // Find a value with no tuples.
  uint32_t missing = 0;
  std::vector<bool> present(1000, false);
  for (TupleId t = 0; t < 2000; ++t) {
    present[(*wb)->data().BoolValue(t, 0)] = true;
  }
  while (present[missing]) ++missing;
  ASSERT_TRUE((*wb)->ColdStart().ok());
  auto out = RunSignature(**wb, QueryRequest::Skyline({{0, missing}}));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->tids.empty());
  // The root's children were boolean-pruned without reading their pages:
  // only the root node itself is expanded.
  EXPECT_LE(out->counters.nodes_expanded, 1u);
}

TEST(QueryEngineSingleTest, CountersArePopulated) {
  SyntheticConfig config;
  config.num_tuples = 3000;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 4;
  config.seed = 35;
  WorkbenchOptions options;
  options.rtree.max_entries = 10;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb.ok());
  ASSERT_TRUE((*wb)->ColdStart().ok());
  auto out = RunSignature(**wb, QueryRequest::Skyline({{0, 1}}));
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->counters.heap_peak, 0u);
  EXPECT_GT(out->counters.nodes_expanded, 0u);
  EXPECT_GT(out->counters.pruned_boolean, 0u);
  // Disk accounting: node expansions show up as R-tree block reads.
  EXPECT_EQ(out->io.ReadCount(IoCategory::kRtreeBlock),
            out->counters.nodes_expanded);
  EXPECT_GT(out->io.ReadCount(IoCategory::kSignature), 0u);
}

}  // namespace
}  // namespace pcube
