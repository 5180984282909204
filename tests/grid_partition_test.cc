// Grid-partition template tests: the alternative partition method of
// §IV.B.1 plugs into the unchanged signature + engine machinery.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "data/generators.h"
#include "query/reference.h"
#include "run_signature.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

TEST(GridPartitionTest, StructureHoldsEveryTuple) {
  SyntheticConfig config;
  config.num_tuples = 3000;
  config.num_bool = 1;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 41;
  Dataset data = GenerateSynthetic(config);
  MemoryPageManager pm;
  IoStats stats;
  BufferPool pool(&pm, 4096, &stats);
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 16;
  auto tree = RStarTree::BuildGridPartition(&pool, data, options, 8);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_entries(), 3000u);
  std::set<TupleId> seen;
  ASSERT_TRUE(tree->CollectPaths(
      [&](TupleId tid, const Path& p, std::span<const float> pt) {
        EXPECT_TRUE(seen.insert(tid).second);
        EXPECT_EQ(p.size(), static_cast<size_t>(tree->height() + 1));
        EXPECT_FLOAT_EQ(pt[0], data.PrefValue(tid, 0));
      }).ok());
  EXPECT_EQ(seen.size(), 3000u);
  // FindPath resolves through the grid structure too.
  for (TupleId t = 0; t < 3000; t += 311) {
    EXPECT_TRUE(tree->FindPath(data.PrefPoint(t), t).ok());
  }
}

TEST(GridPartitionTest, QueriesMatchNaiveOnGridTemplate) {
  SyntheticConfig config;
  config.num_tuples = 4000;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 4;
  config.seed = 42;
  WorkbenchOptions options;
  options.grid_cells_per_dim = 6;
  options.rtree.max_entries = 16;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb.ok());
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.4, 0.6});
  for (uint32_t v = 0; v < 4; ++v) {
    PredicateSet preds{{0, v}};
    auto sky = RunSignature(**wb, QueryRequest::Skyline(preds));
    ASSERT_TRUE(sky.ok());
    EXPECT_EQ(sky->tids, NaiveSkyline((*wb)->data(), preds));
    auto topk = RunSignature(**wb, QueryRequest::TopK(preds, f, 10));
    ASSERT_TRUE(topk.ok());
    auto naive = NaiveTopK((*wb)->data(), preds, *f, 10);
    ASSERT_EQ(topk->scores.size(), naive.size());
    for (size_t i = 0; i < naive.size(); ++i) {
      EXPECT_NEAR(topk->scores[i], naive[i].second, 1e-9);
    }
  }
}

TEST(GridPartitionTest, MaintenanceWorksOnGridTemplate) {
  SyntheticConfig config;
  config.num_tuples = 1500;
  config.num_bool = 1;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 43;
  Dataset full = GenerateSynthetic(config);
  Dataset initial(full.schema(), 0);
  for (TupleId t = 0; t < 1200; ++t) {
    initial.Append(full.BoolRow(t), full.PrefPoint(t));
  }
  WorkbenchOptions options;
  options.grid_cells_per_dim = 5;
  options.rtree.max_entries = 12;
  auto wb = Workbench::Build(std::move(initial), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;
  WriteBatch batch;
  for (TupleId src = 1200; src < 1500; ++src) {
    auto bools = full.BoolRow(src);
    auto prefs = full.PrefPoint(src);
    batch.inserts.push_back({{bools.begin(), bools.end()},
                             {prefs.begin(), prefs.end()}});
  }
  auto applied = w.Apply(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  PredicateSet preds{{0, 1}};
  auto sky = RunSignature(w, QueryRequest::Skyline(preds));
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->tids, NaiveSkyline(w.data(), preds));
}

TEST(GridPartitionTest, DegenerateGrids) {
  SyntheticConfig config;
  config.num_tuples = 300;
  config.num_bool = 1;
  config.num_pref = 2;
  config.bool_cardinality = 2;
  config.seed = 44;
  Dataset data = GenerateSynthetic(config);
  MemoryPageManager pm;
  IoStats stats;
  BufferPool pool(&pm, 1024, &stats);
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 8;
  // 1 cell per dim = one big bucket; still a valid tree.
  auto coarse = RStarTree::BuildGridPartition(&pool, data, options, 1);
  ASSERT_TRUE(coarse.ok());
  EXPECT_EQ(coarse->num_entries(), 300u);
  // Very fine grid: most cells empty; still a valid tree.
  auto fine = RStarTree::BuildGridPartition(&pool, data, options, 64);
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->num_entries(), 300u);
}

}  // namespace
}  // namespace pcube
