// Incremental maintenance tests (paper §IV.B.3): after any interleaving of
// inserts and deletes — including ones that trigger node splits and forced
// re-insertion — every stored signature equals a from-scratch rebuild.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/pcube.h"
#include "core/signature_builder.h"
#include "data/generators.h"
#include "query/reference.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

WriteBatch::Row MakeRow(const Dataset& data, TupleId t) {
  auto bools = data.BoolRow(t);
  auto prefs = data.PrefPoint(t);
  return {{bools.begin(), bools.end()}, {prefs.begin(), prefs.end()}};
}

class MaintenanceTest : public ::testing::TestWithParam<int> {
 protected:
  /// Compares every atomic cell's stored signature against a fresh build
  /// from the tree's current paths.
  void ExpectStoreMatchesRebuild(Workbench& w,
                                 const std::vector<bool>& alive) {
    auto paths = PathTable::Collect(*w.tree());
    ASSERT_TRUE(paths.ok());
    const Dataset& data = w.data();
    for (int dim = 0; dim < data.num_bool(); ++dim) {
      for (uint32_t v = 0; v < data.schema().bool_cardinality[dim]; ++v) {
        Signature expect(w.tree()->fanout(), w.cube()->levels());
        for (TupleId t = 0; t < data.num_tuples(); ++t) {
          if (t < alive.size() && !alive[t]) continue;
          if (data.BoolValue(t, dim) == v) expect.SetPath(paths->path(t));
        }
        auto got = w.cube()->store().LoadFull(AtomicCellId(dim, v),
                                              w.tree()->fanout(),
                                              w.cube()->levels());
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(got->Equals(expect))
            << "dim=" << dim << " v=" << v << "\nstored:\n"
            << got->ToString() << "\nexpected:\n"
            << expect.ToString();
      }
    }
  }
};

TEST_P(MaintenanceTest, InsertBatchesMatchRebuild) {
  SyntheticConfig config;
  config.num_tuples = 1200;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 60 + GetParam();
  Dataset full = GenerateSynthetic(config);

  // Start the workbench from the first 800 tuples.
  Dataset initial(full.schema(), 0);
  for (TupleId t = 0; t < 800; ++t) {
    initial.Append(full.BoolRow(t), full.PrefPoint(t));
  }
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  options.rtree_by_insertion = true;
  auto wb = Workbench::Build(std::move(initial), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;

  // Apply 4 batches of 100 inserts; the write path maintains the cube
  // (falling back to a rebuild internally when the root splits).
  for (int batch = 0; batch < 4; ++batch) {
    WriteBatch wbatch;
    for (int i = 0; i < 100; ++i) {
      wbatch.inserts.push_back(MakeRow(full, 800 + batch * 100 + i));
    }
    auto applied = w.Apply(wbatch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    std::vector<bool> alive(w.data().num_tuples(), true);
    ExpectStoreMatchesRebuild(w, alive);
  }
}

TEST_P(MaintenanceTest, MixedInsertDeleteMatchesRebuild) {
  SyntheticConfig config;
  config.num_tuples = 1000;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 70 + GetParam();
  Dataset full = GenerateSynthetic(config);

  Dataset initial(full.schema(), 0);
  for (TupleId t = 0; t < 600; ++t) {
    initial.Append(full.BoolRow(t), full.PrefPoint(t));
  }
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  options.rtree_by_insertion = true;
  auto wb = Workbench::Build(std::move(initial), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;

  std::vector<bool> alive(600, true);
  Random rng(GetParam());
  for (int batch = 0; batch < 3; ++batch) {
    WriteBatch wbatch;
    // Insert 80 new tuples...
    for (int i = 0; i < 80; ++i) {
      wbatch.inserts.push_back(MakeRow(full, 600 + batch * 80 + i));
      alive.push_back(true);
    }
    // ... and delete 40 random live ones (avoiding the not-yet-applied
    // inserts: a batch's deletes may only name existing tuples).
    const size_t existing = alive.size() - 80;
    for (int i = 0; i < 40; ++i) {
      TupleId victim = rng.Uniform(existing);
      if (!alive[victim]) continue;
      alive[victim] = false;
      wbatch.deletes.push_back(victim);
    }
    auto applied = w.Apply(wbatch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ExpectStoreMatchesRebuild(w, alive);
  }
}

TEST(MaintenanceTest, PerTupleMaintenanceMatchesRebuild) {
  // Tuple-at-a-time maintenance (the paper's non-batched mode, Fig. 7).
  SyntheticConfig config;
  config.num_tuples = 700;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 80;
  Dataset full = GenerateSynthetic(config);
  Dataset initial(full.schema(), 0);
  for (TupleId t = 0; t < 650; ++t) {
    initial.Append(full.BoolRow(t), full.PrefPoint(t));
  }
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  options.rtree_by_insertion = true;
  auto wb = Workbench::Build(std::move(initial), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;

  for (TupleId src = 650; src < 700; ++src) {
    WriteBatch wbatch;
    wbatch.inserts.push_back(MakeRow(full, src));
    auto applied = w.Apply(wbatch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }
  // Final state must equal a rebuild.
  auto paths = PathTable::Collect(*w.tree());
  ASSERT_TRUE(paths.ok());
  for (int dim = 0; dim < 2; ++dim) {
    for (uint32_t v = 0; v < 3; ++v) {
      Signature expect = BuildCellSignature(w.data(), *paths, {{dim, v}},
                                            w.tree()->fanout(),
                                            w.cube()->levels());
      auto got = w.cube()->store().LoadFull(AtomicCellId(dim, v),
                                            w.tree()->fanout(),
                                            w.cube()->levels());
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->Equals(expect));
    }
  }
}

TEST(MaintenanceTest, CompositeCellsMaintainedToo) {
  // With materialize_max_dims = 2 the 2-d composite cells must also track
  // inserts/deletes; combos first seen after the build fall back to the
  // lazy atomic AND (which stays exact at tuple level).
  SyntheticConfig config;
  config.num_tuples = 900;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 85;
  Dataset full = GenerateSynthetic(config);
  Dataset initial(full.schema(), 0);
  for (TupleId t = 0; t < 700; ++t) {
    initial.Append(full.BoolRow(t), full.PrefPoint(t));
  }
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  options.pcube.materialize_max_dims = 2;
  auto wb = Workbench::Build(std::move(initial), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;

  WriteBatch wbatch;
  for (TupleId src = 700; src < 900; ++src) {
    wbatch.inserts.push_back(MakeRow(full, src));
  }
  for (TupleId victim = 0; victim < 80; ++victim) {
    wbatch.deletes.push_back(victim);
  }
  auto applied = w.Apply(wbatch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  // Two-predicate queries exercise the composite signatures.
  for (uint32_t va = 0; va < 3; ++va) {
    for (uint32_t vb = 0; vb < 3; ++vb) {
      PredicateSet preds{{0, va}, {1, vb}};
      auto probe = w.cube()->MakeProbe(preds);
      ASSERT_TRUE(probe.ok());
      SkylineEngine engine(w.tree(), probe->get(), nullptr);
      auto out = engine.Run();
      ASSERT_TRUE(out.ok());
      std::vector<TupleId> got;
      for (const SearchEntry& e : out->skyline) got.push_back(e.id);
      std::sort(got.begin(), got.end());
      // Oracle over live tuples (deleted tids 0..79).
      std::vector<TupleId> cand;
      for (TupleId t = 80; t < w.data().num_tuples(); ++t) {
        if (preds.Matches(w.data(), t)) cand.push_back(t);
      }
      std::vector<int> dims = {0, 1};
      auto expect = SortFilterSkyline(w.data(), cand, dims);
      EXPECT_EQ(got, expect) << preds.ToString();
    }
  }
}

TEST(MaintenanceTest, BloomRewritesReuseTheirPages) {
  // Small batches rewrite the Bloom filters of the cells they touch. Every
  // filter here fits one page, so the rewrites must take no new pages; and
  // the Bloom probe must still never miss what the signature probe finds.
  SyntheticConfig config;
  config.num_tuples = 880;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 90;
  Dataset full = GenerateSynthetic(config);
  Dataset initial(full.schema(), 0);
  for (TupleId t = 0; t < 800; ++t) {
    initial.Append(full.BoolRow(t), full.PrefPoint(t));
  }
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  options.rtree_by_insertion = true;
  options.pcube.build_bloom = true;
  auto wb = Workbench::Build(std::move(initial), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;
  auto bloom_pages = [&] {
    const PCube& cube = *w.cube();
    return cube.MaterializedPages() - cube.store().num_pages() -
           cube.store().index().num_pages();
  };
  const uint64_t pages = bloom_pages();
  EXPECT_EQ(pages, 6u);  // one per cell

  for (int batch = 0; batch < 10; ++batch) {
    WriteBatch wbatch;
    for (int i = 0; i < 8; ++i) {
      wbatch.inserts.push_back(MakeRow(full, 800 + batch * 8 + i));
    }
    auto applied = w.Apply(wbatch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(bloom_pages(), pages) << "batch " << batch;
  }

  auto paths = PathTable::Collect(*w.tree());
  ASSERT_TRUE(paths.ok());
  for (int dim = 0; dim < 2; ++dim) {
    for (uint32_t v = 0; v < 3; ++v) {
      PredicateSet preds{{dim, v}};
      auto bloom = w.cube()->MakeBloomProbe(preds);
      auto exact = w.cube()->MakeProbe(preds);
      ASSERT_TRUE(bloom.ok());
      ASSERT_TRUE(exact.ok());
      for (TupleId t = 0; t < w.data().num_tuples(); t += 5) {
        const Path& p = paths->path(t);
        for (size_t len = 1; len <= p.size(); ++len) {
          Path prefix(p.begin(), p.begin() + len);
          auto want = (*exact)->Test(prefix);
          auto got = (*bloom)->Test(prefix);
          ASSERT_TRUE(want.ok());
          ASSERT_TRUE(got.ok());
          if (*want) {
            EXPECT_TRUE(*got) << "bloom false negative at "
                              << PathToString(prefix);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace pcube
