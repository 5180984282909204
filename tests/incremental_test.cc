// Lemma 2 tests: drill-down and roll-up executed from the previous query's
// cached lists must return exactly the answers of a fresh query — for both
// skyline and top-k — while expanding fewer R-tree nodes.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "data/generators.h"
#include "query/incremental.h"
#include "query/reference.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

std::vector<TupleId> SkylineTids(const SkylineOutput& out) {
  std::vector<TupleId> tids;
  for (const SearchEntry& e : out.skyline) tids.push_back(e.id);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<double> Scores(const TopKOutput& out) {
  std::vector<double> s;
  for (const SearchEntry& e : out.results) s.push_back(e.key);
  return s;
}

class IncrementalTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Workbench> MakeWorkbench(uint64_t seed) {
    SyntheticConfig config;
    config.num_tuples = 4000;
    config.num_bool = 3;
    config.num_pref = 2;
    config.bool_cardinality = 3;
    config.seed = seed;
    WorkbenchOptions options;
    options.rtree.max_entries = 10;
    auto wb = Workbench::Build(GenerateSynthetic(config), options);
    PCUBE_CHECK(wb.ok());
    return std::move(*wb);
  }

  Result<SkylineOutput> RunSkyline(Workbench& w, const PredicateSet& preds,
                                   const std::vector<SearchEntry>* seed) {
    auto probe = w.cube()->MakeProbe(preds);
    if (!probe.ok()) return probe.status();
    SkylineEngine engine(w.tree(), probe->get(), nullptr);
    return seed == nullptr ? engine.Run() : engine.RunFrom(*seed);
  }

  Result<TopKOutput> RunTopK(Workbench& w, const PredicateSet& preds,
                             const RankingFunction& f, size_t k,
                             const std::vector<SearchEntry>* seed) {
    auto probe = w.cube()->MakeProbe(preds);
    if (!probe.ok()) return probe.status();
    TopKEngine engine(w.tree(), probe->get(), nullptr, &f, k);
    return seed == nullptr ? engine.Run() : engine.RunFrom(*seed);
  }
};

TEST_P(IncrementalTest, SkylineDrillDownMatchesFreshQuery) {
  auto wb = MakeWorkbench(300 + GetParam());
  Random rng(GetParam());
  PredicateSet base{{0, static_cast<uint32_t>(rng.Uniform(3))}};
  auto first = RunSkyline(*wb, base, nullptr);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(SkylineTids(*first), NaiveSkyline(wb->data(), base));

  // Drill down by adding a predicate on another dimension.
  PredicateSet drilled = base;
  drilled.Add({1, static_cast<uint32_t>(rng.Uniform(3))});
  auto seed = DrillDownSeed(*first);
  ASSERT_TRUE(wb->ColdStart().ok());
  auto incremental = RunSkyline(*wb, drilled, &seed);
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(SkylineTids(*incremental), NaiveSkyline(wb->data(), drilled));

  // And it must be cheaper than a fresh execution (Fig. 16's speed-up).
  auto fresh = RunSkyline(*wb, drilled, nullptr);
  ASSERT_TRUE(fresh.ok());
  EXPECT_LE(incremental->counters.nodes_expanded,
            fresh->counters.nodes_expanded);
}

TEST_P(IncrementalTest, SkylineRollUpMatchesFreshQuery) {
  auto wb = MakeWorkbench(330 + GetParam());
  Random rng(40 + GetParam());
  PredicateSet base{{0, static_cast<uint32_t>(rng.Uniform(3))},
                    {2, static_cast<uint32_t>(rng.Uniform(3))}};
  auto first = RunSkyline(*wb, base, nullptr);
  ASSERT_TRUE(first.ok());

  PredicateSet rolled = base;
  rolled.Remove(2);
  auto seed = RollUpSeed(*first);
  auto incremental = RunSkyline(*wb, rolled, &seed);
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(SkylineTids(*incremental), NaiveSkyline(wb->data(), rolled));
}

TEST_P(IncrementalTest, TopKDrillDownMatchesFreshQuery) {
  auto wb = MakeWorkbench(360 + GetParam());
  Random rng(80 + GetParam());
  LinearRanking f({0.5, 0.5});
  PredicateSet base{{0, static_cast<uint32_t>(rng.Uniform(3))}};
  auto first = RunTopK(*wb, base, f, 20, nullptr);
  ASSERT_TRUE(first.ok());

  PredicateSet drilled = base;
  drilled.Add({1, static_cast<uint32_t>(rng.Uniform(3))});
  auto seed = DrillDownSeed(*first);
  auto incremental = RunTopK(*wb, drilled, f, 20, &seed);
  ASSERT_TRUE(incremental.ok());
  auto naive = NaiveTopK(wb->data(), drilled, f, 20);
  std::vector<double> expect;
  for (const auto& [tid, score] : naive) expect.push_back(score);
  std::vector<double> got = Scores(*incremental);
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], expect[i], 1e-9);
}

TEST_P(IncrementalTest, TopKRollUpMatchesFreshQuery) {
  auto wb = MakeWorkbench(390 + GetParam());
  Random rng(120 + GetParam());
  LinearRanking f({0.8, 0.2});
  PredicateSet base{{0, static_cast<uint32_t>(rng.Uniform(3))},
                    {1, static_cast<uint32_t>(rng.Uniform(3))}};
  auto first = RunTopK(*wb, base, f, 15, nullptr);
  ASSERT_TRUE(first.ok());

  PredicateSet rolled = base;
  rolled.Remove(0);
  auto seed = RollUpSeed(*first);
  auto incremental = RunTopK(*wb, rolled, f, 15, &seed);
  ASSERT_TRUE(incremental.ok());
  auto naive = NaiveTopK(wb->data(), rolled, f, 15);
  std::vector<double> got = Scores(*incremental);
  ASSERT_EQ(got.size(), naive.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], naive[i].second, 1e-9);
  }
}

TEST_P(IncrementalTest, ChainedDrillDowns) {
  // Drill down twice (1 -> 2 -> 3 predicates), reusing lists each time.
  auto wb = MakeWorkbench(420 + GetParam());
  Random rng(160 + GetParam());
  PredicateSet preds{{0, static_cast<uint32_t>(rng.Uniform(3))}};
  auto out = RunSkyline(*wb, preds, nullptr);
  ASSERT_TRUE(out.ok());
  for (int dim = 1; dim <= 2; ++dim) {
    preds.Add({dim, static_cast<uint32_t>(rng.Uniform(3))});
    auto seed = DrillDownSeed(*out);
    out = RunSkyline(*wb, preds, &seed);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(SkylineTids(*out), NaiveSkyline(wb->data(), preds))
        << preds.ToString();
  }
}

TEST_P(IncrementalTest, ChainedDrillDownsThenRollUpsSkyline) {
  // Regression test for session-list maintenance: after an incremental run,
  // earlier pruned entries must be carried forward (MergeAfterDrillDown /
  // MergeAfterRollUp) or a later roll-up misses answers.
  auto wb = MakeWorkbench(450 + GetParam());
  Random rng(200 + GetParam());
  std::vector<Predicate> chain = {
      {0, static_cast<uint32_t>(rng.Uniform(3))},
      {1, static_cast<uint32_t>(rng.Uniform(3))},
      {2, static_cast<uint32_t>(rng.Uniform(3))}};

  PredicateSet preds{chain[0]};
  auto out = RunSkyline(*wb, preds, nullptr);
  ASSERT_TRUE(out.ok());
  SkylineOutput session = std::move(*out);

  // Drill down twice.
  for (int i = 1; i <= 2; ++i) {
    preds.Add(chain[i]);
    auto seed = DrillDownSeed(session);
    auto run = RunSkyline(*wb, preds, &seed);
    ASSERT_TRUE(run.ok());
    session = MergeAfterDrillDown(std::move(*run), session);
    EXPECT_EQ(SkylineTids(session), NaiveSkyline(wb->data(), preds));
  }
  // Roll back up twice, in reverse.
  for (int i = 2; i >= 1; --i) {
    preds.Remove(chain[i].dim);
    auto seed = RollUpSeed(session);
    auto run = RunSkyline(*wb, preds, &seed);
    ASSERT_TRUE(run.ok());
    session = MergeAfterRollUp(std::move(*run), session);
    EXPECT_EQ(SkylineTids(session), NaiveSkyline(wb->data(), preds))
        << "roll-up to " << preds.ToString();
  }
}

TEST_P(IncrementalTest, ChainedDrillDownsThenRollUpsTopK) {
  auto wb = MakeWorkbench(480 + GetParam());
  Random rng(240 + GetParam());
  LinearRanking f({0.4, 0.6});
  const size_t k = 12;
  std::vector<Predicate> chain = {
      {0, static_cast<uint32_t>(rng.Uniform(3))},
      {1, static_cast<uint32_t>(rng.Uniform(3))},
      {2, static_cast<uint32_t>(rng.Uniform(3))}};

  auto expect_matches = [&](const TopKOutput& out, const PredicateSet& p) {
    auto naive = NaiveTopK(wb->data(), p, f, k);
    ASSERT_EQ(out.results.size(), naive.size()) << p.ToString();
    for (size_t i = 0; i < naive.size(); ++i) {
      EXPECT_NEAR(out.results[i].key, naive[i].second, 1e-9)
          << p.ToString() << " rank " << i;
    }
  };

  PredicateSet preds{chain[0]};
  auto out = RunTopK(*wb, preds, f, k, nullptr);
  ASSERT_TRUE(out.ok());
  TopKOutput session = std::move(*out);
  expect_matches(session, preds);

  for (int i = 1; i <= 2; ++i) {
    preds.Add(chain[i]);
    auto seed = DrillDownSeed(session);
    auto run = RunTopK(*wb, preds, f, k, &seed);
    ASSERT_TRUE(run.ok());
    session = MergeAfterDrillDown(std::move(*run), session);
    expect_matches(session, preds);
  }
  for (int i = 2; i >= 1; --i) {
    preds.Remove(chain[i].dim);
    auto seed = RollUpSeed(session);
    auto run = RunTopK(*wb, preds, f, k, &seed);
    ASSERT_TRUE(run.ok());
    session = std::move(*run);  // a top-k roll-up has no d_list to carry
    expect_matches(session, preds);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace pcube
