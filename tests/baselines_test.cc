// Baseline tests: Boolean-first, Domination-first and Index-merge must all
// return the reference answers, and the Lemma 1 proxy must hold — the
// signature method never reads more R-tree blocks than Domination-first.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "data/generators.h"
#include "query/reference.h"
#include "run_signature.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

std::vector<TupleId> SkylineTids(const SkylineOutput& out) {
  std::vector<TupleId> tids;
  for (const SearchEntry& e : out.skyline) tids.push_back(e.id);
  std::sort(tids.begin(), tids.end());
  return tids;
}

class BaselinesTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Workbench> MakeWorkbench(uint64_t seed,
                                           PrefDistribution dist) {
    SyntheticConfig config;
    config.num_tuples = 4000;
    config.num_bool = 3;
    config.num_pref = 2;
    config.bool_cardinality = 5;
    config.dist = dist;
    config.seed = seed;
    WorkbenchOptions options;
    options.rtree.max_entries = 12;
    auto wb = Workbench::Build(GenerateSynthetic(config), options);
    PCUBE_CHECK(wb.ok());
    return std::move(*wb);
  }
};

TEST_P(BaselinesTest, BooleanFirstSkylineMatchesNaive) {
  auto wb = MakeWorkbench(500 + GetParam(), PrefDistribution::kUniform);
  BooleanFirstExecutor boolean(&wb->indices(), wb->table());
  Random rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    PredicateSet preds;
    for (int d = 0; d < trial % 3; ++d) {
      preds.Add({d, static_cast<uint32_t>(rng.Uniform(5))});
    }
    auto out = boolean.Skyline(preds);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->tids, NaiveSkyline(wb->data(), preds)) << preds.ToString();
  }
}

TEST_P(BaselinesTest, BooleanFirstTopKMatchesNaive) {
  auto wb = MakeWorkbench(520 + GetParam(), PrefDistribution::kUniform);
  BooleanFirstExecutor boolean(&wb->indices(), wb->table());
  LinearRanking f({0.3, 0.7});
  PredicateSet preds{{0, 2}};
  auto out = boolean.TopK(preds, f, 25);
  ASSERT_TRUE(out.ok());
  auto naive = NaiveTopK(wb->data(), preds, f, 25);
  ASSERT_EQ(out->scores.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(out->scores[i], naive[i].second, 1e-9);
  }
}

TEST_P(BaselinesTest, DominationFirstSkylineMatchesNaive) {
  auto wb = MakeWorkbench(540 + GetParam(), PrefDistribution::kAntiCorrelated);
  Random rng(30 + GetParam());
  for (int npreds : {0, 1, 2}) {
    PredicateSet preds;
    for (int d = 0; d < npreds; ++d) {
      preds.Add({d, static_cast<uint32_t>(rng.Uniform(5))});
    }
    auto out = DominationFirstSkyline(*wb->tree(), *wb->table(), preds);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(SkylineTids(*out), NaiveSkyline(wb->data(), preds))
        << preds.ToString();
  }
}

TEST_P(BaselinesTest, RankingFirstTopKMatchesNaive) {
  auto wb = MakeWorkbench(560 + GetParam(), PrefDistribution::kUniform);
  LinearRanking f({0.6, 0.4});
  PredicateSet preds{{1, 1}};
  auto out = RankingFirstTopK(*wb->tree(), *wb->table(), preds, f, 30);
  ASSERT_TRUE(out.ok());
  auto naive = NaiveTopK(wb->data(), preds, f, 30);
  ASSERT_EQ(out->results.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(out->results[i].key, naive[i].second, 1e-9);
  }
  EXPECT_GT(out->counters.verified, 0u);
}

TEST_P(BaselinesTest, IndexMergeTopKMatchesNaive) {
  auto wb = MakeWorkbench(580 + GetParam(), PrefDistribution::kUniform);
  LinearRanking f({0.5, 0.5});
  Random rng(60 + GetParam());
  for (int npreds : {1, 2, 3}) {
    PredicateSet preds;
    for (int d = 0; d < npreds; ++d) {
      preds.Add({d, static_cast<uint32_t>(rng.Uniform(5))});
    }
    auto out = IndexMergeTopK(*wb->tree(), wb->indices(), preds, f, 20);
    ASSERT_TRUE(out.ok());
    auto naive = NaiveTopK(wb->data(), preds, f, 20);
    ASSERT_EQ(out->results.size(), naive.size()) << preds.ToString();
    for (size_t i = 0; i < naive.size(); ++i) {
      EXPECT_NEAR(out->results[i].key, naive[i].second, 1e-9);
    }
  }
}

TEST_P(BaselinesTest, Lemma1ProxySignatureReadsNoMoreBlocks) {
  auto wb = MakeWorkbench(600 + GetParam(), PrefDistribution::kUniform);
  Random rng(90 + GetParam());
  for (int trial = 0; trial < 3; ++trial) {
    PredicateSet preds{{0, static_cast<uint32_t>(rng.Uniform(5))}};
    auto sig = RunSignature(*wb, QueryRequest::Skyline(preds));
    ASSERT_TRUE(sig.ok());
    auto dom = DominationFirstSkyline(*wb->tree(), *wb->table(), preds);
    ASSERT_TRUE(dom.ok());
    EXPECT_EQ(sig->tids, SkylineTids(*dom));
    // Lemma 1: signature pruning is a strict superset of domination pruning.
    EXPECT_LE(sig->counters.nodes_expanded, dom->counters.nodes_expanded);
    // And the signature method performs no random boolean verifications.
    EXPECT_EQ(sig->counters.verified, 0u);
    EXPECT_GT(dom->counters.verified, 0u);
  }
}

TEST_P(BaselinesTest, BloomProbeWithVerificationMatchesNaive) {
  // §VII lossy variant: bloom probe + tuple verification = exact answers.
  SyntheticConfig config;
  config.num_tuples = 3000;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 4;
  config.seed = 620 + GetParam();
  WorkbenchOptions options;
  options.rtree.max_entries = 10;
  options.pcube.build_bloom = true;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;
  PredicateSet preds{{0, 1}};
  auto probe = w.cube()->MakeBloomProbe(preds);
  ASSERT_TRUE(probe.ok());
  TupleVerifier verifier(w.table(), preds);
  SkylineEngine engine(w.tree(), probe->get(), &verifier);
  auto out = engine.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(SkylineTids(*out), NaiveSkyline(w.data(), preds));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselinesTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace pcube
