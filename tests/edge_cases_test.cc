// Edge-case and failure-injection tests across the stack: degenerate
// datasets, duplicate points, extreme parameters, tiny buffer pools, and
// signature-store churn.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/signature_store.h"
#include "data/generators.h"
#include "query/reference.h"
#include "run_signature.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

// f = x + y over the two preference dimensions.
std::shared_ptr<const LinearRanking> SumRanking() {
  return std::make_shared<LinearRanking>(std::vector<double>{1.0, 1.0});
}

Dataset TinyDataset(std::vector<std::pair<uint32_t, std::vector<float>>> rows,
                    uint32_t card, int dp) {
  Schema schema;
  schema.num_bool = 1;
  schema.num_pref = dp;
  schema.bool_cardinality = {card};
  Dataset data(schema, 0);
  for (auto& [b, p] : rows) {
    data.Append(std::vector<uint32_t>{b}, p);
  }
  return data;
}

TEST(EdgeCaseTest, SingleTupleDataset) {
  Dataset data = TinyDataset({{0, {0.5f, 0.5f}}}, 2, 2);
  auto wb = Workbench::Build(std::move(data), WorkbenchOptions{});
  ASSERT_TRUE(wb.ok());
  auto sky = RunSignature(**wb, QueryRequest::Skyline({{0, 0}}));
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->tids, (std::vector<TupleId>{0}));
  auto none = RunSignature(**wb, QueryRequest::Skyline({{0, 1}}));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->tids.empty());
  auto topk =
      RunSignature(**wb, QueryRequest::TopK({{0, 0}}, SumRanking(), 10));
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->tids.size(), 1u);
}

TEST(EdgeCaseTest, AllIdenticalPoints) {
  std::vector<std::pair<uint32_t, std::vector<float>>> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({static_cast<uint32_t>(i % 2), {0.3f, 0.3f}});
  }
  Dataset data = TinyDataset(std::move(rows), 2, 2);
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  auto wb = Workbench::Build(std::move(data), options);
  ASSERT_TRUE(wb.ok());
  // No point dominates an identical point: everything is in the skyline.
  auto sky = RunSignature(**wb, QueryRequest::Skyline({{0, 0}}));
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->tids.size(), 100u);
  EXPECT_EQ(sky->tids, NaiveSkyline((*wb)->data(), {{0, 0}}));
}

TEST(EdgeCaseTest, DuplicatePointsTopK) {
  std::vector<std::pair<uint32_t, std::vector<float>>> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({0, {0.1f, 0.1f}});
  for (int i = 0; i < 50; ++i) rows.push_back({0, {0.9f, 0.9f}});
  Dataset data = TinyDataset(std::move(rows), 1, 2);
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  auto wb = Workbench::Build(std::move(data), options);
  ASSERT_TRUE(wb.ok());
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.5, 0.5});
  auto topk = RunSignature(**wb, QueryRequest::TopK({}, f, 60));
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->scores.size(), 60u);
  for (int i = 0; i < 50; ++i) EXPECT_NEAR(topk->scores[i], 0.1, 1e-6);
  for (int i = 50; i < 60; ++i) EXPECT_NEAR(topk->scores[i], 0.9, 1e-6);
}

TEST(EdgeCaseTest, KLargerThanMatches) {
  SyntheticConfig config;
  config.num_tuples = 500;
  config.num_bool = 1;
  config.num_pref = 2;
  config.bool_cardinality = 100;
  config.seed = 99;
  auto wb = Workbench::Build(GenerateSynthetic(config), WorkbenchOptions{});
  ASSERT_TRUE(wb.ok());
  auto f = SumRanking();
  PredicateSet preds{{0, 5}};
  auto naive = NaiveTopK((*wb)->data(), preds, *f, 1000);
  auto topk = RunSignature(**wb, QueryRequest::TopK(preds, f, 1000));
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->tids.size(), naive.size());  // fewer than k matches
}

TEST(EdgeCaseTest, ZeroKTopK) {
  Dataset data = TinyDataset({{0, {0.5f, 0.5f}}}, 1, 2);
  auto wb = Workbench::Build(std::move(data), WorkbenchOptions{});
  ASSERT_TRUE(wb.ok());
  auto topk = RunSignature(**wb, QueryRequest::TopK({}, SumRanking(), 0));
  ASSERT_TRUE(topk.ok());
  EXPECT_TRUE(topk->tids.empty());
}

TEST(EdgeCaseTest, OneDimensionalPreferenceSpace) {
  SyntheticConfig config;
  config.num_tuples = 1000;
  config.num_bool = 2;
  config.num_pref = 1;
  config.bool_cardinality = 4;
  config.seed = 17;
  WorkbenchOptions options;
  options.rtree.max_entries = 16;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb.ok());
  // 1-d skyline = the minimum (plus exact ties).
  PredicateSet preds{{0, 2}};
  auto sky = RunSignature(**wb, QueryRequest::Skyline(preds));
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->tids, NaiveSkyline((*wb)->data(), preds));
}

TEST(EdgeCaseTest, HighDimensionalPreferenceSpace) {
  SyntheticConfig config;
  config.num_tuples = 800;
  config.num_bool = 1;
  config.num_pref = 6;
  config.bool_cardinality = 3;
  config.seed = 18;
  WorkbenchOptions options;
  options.rtree.max_entries = 12;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb.ok());
  PredicateSet preds{{0, 1}};
  auto sky = RunSignature(**wb, QueryRequest::Skyline(preds));
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->tids, NaiveSkyline((*wb)->data(), preds));
}

TEST(EdgeCaseTest, QueriesSurviveTinyBufferPool) {
  SyntheticConfig config;
  config.num_tuples = 3000;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 4;
  config.seed = 19;
  WorkbenchOptions options;
  options.pool_pages = 4;  // brutal thrashing
  options.rtree.max_entries = 10;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb.ok());
  PredicateSet preds{{0, 1}};
  auto sky = RunSignature(**wb, QueryRequest::Skyline(preds));
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->tids, NaiveSkyline((*wb)->data(), preds));
}

TEST(EdgeCaseTest, StoreChurnRoundTrips) {
  MemoryPageManager pm;
  IoStats stats;
  BufferPool pool(&pm, 4096, &stats);
  auto store = SignatureStore::Create(&pool);
  ASSERT_TRUE(store.ok());
  Random rng(21);
  // Churn: grow and shrink many cell signatures repeatedly, so partials are
  // overwritten in place, grow into their page's tail, move and tombstone.
  std::vector<Signature> current;
  for (int round = 0; round < 6; ++round) {
    current.clear();
    for (uint64_t cell = 0; cell < 40; ++cell) {
      int paths = 5 + static_cast<int>(rng.Uniform(400));
      Signature sig(12, 3);
      for (int i = 0; i < paths; ++i) {
        Path p(3);
        for (auto& s : p) s = static_cast<uint16_t>(1 + rng.Uniform(12));
        sig.SetPath(p);
      }
      ASSERT_TRUE(store->Put(100 + cell, sig).ok());
      current.push_back(sig.Clone());
    }
  }
  // Every cell reads back exactly its last signature.
  for (uint64_t cell = 0; cell < 40; ++cell) {
    auto loaded = store->LoadFull(100 + cell, 12, 3);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->Equals(current[cell])) << "cell " << cell;
  }
}

TEST(EdgeCaseTest, EmptyPredicateSkylineEqualsGlobalSkyline) {
  SyntheticConfig config;
  config.num_tuples = 2000;
  config.num_bool = 1;
  config.num_pref = 3;
  config.bool_cardinality = 5;
  config.seed = 23;
  auto wb = Workbench::Build(GenerateSynthetic(config), WorkbenchOptions{});
  ASSERT_TRUE(wb.ok());
  auto sky = RunSignature(**wb, QueryRequest::Skyline({}));
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->tids, NaiveSkyline((*wb)->data(), {}));
}

}  // namespace
}  // namespace pcube
