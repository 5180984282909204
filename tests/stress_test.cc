// Randomized end-to-end stress: for each seed, draw a random configuration
// (dimensionalities, cardinalities, distribution, fanout), build the full
// stack, fire a mixed battery of queries (skyline, dynamic skyline, skyband,
// top-k with several ranking functions, multi-predicate, dimension subsets)
// against naive oracles, then mutate the data (insert + delete batches with
// incremental maintenance) and verify everything again. Each query runs
// through Workbench::Run on the signature plan; the same query on a bare
// engine that keeps its pruned lists (PrunedLists::kKeep) must report
// Run's counters, and on one that drops them (kDrop) must change neither
// the answer nor a counter.
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

// A run that drops b_list / d_list must return the same entries, scores
// and counters as one that keeps them; only sig_seconds may differ. The
// kept lists hold exactly the entries the counters say were pruned.
void ExpectCountersEqual(const EngineCounters& a, const EngineCounters& b) {
  EXPECT_EQ(a.heap_peak, b.heap_peak);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.pruned_boolean, b.pruned_boolean);
  EXPECT_EQ(a.pruned_preference, b.pruned_preference);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.verify_failed, b.verify_failed);
}

void ExpectSameEntries(const std::vector<SearchEntry>& a,
                       const std::vector<SearchEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "entry " << i;
    EXPECT_EQ(a[i].key, b[i].key) << "entry " << i;
  }
}

template <typename Output>
void ExpectListParity(const Output& kept, const Output& dropped) {
  ExpectCountersEqual(kept.counters, dropped.counters);
  EXPECT_EQ(kept.b_list.size(), kept.counters.pruned_boolean);
  EXPECT_TRUE(dropped.b_list.empty());
}

void ExpectListParity(const SkylineOutput& kept, const SkylineOutput& dropped) {
  ExpectSameEntries(kept.skyline, dropped.skyline);
  ExpectListParity<SkylineOutput>(kept, dropped);
  EXPECT_EQ(kept.d_list.size(), kept.counters.pruned_preference);
  EXPECT_TRUE(dropped.d_list.empty());
}

void ExpectListParity(const TopKOutput& kept, const TopKOutput& dropped) {
  ExpectSameEntries(kept.results, dropped.results);
  ExpectSameEntries(kept.remaining, dropped.remaining);
  ExpectListParity<TopKOutput>(kept, dropped);
}

// The query Run executes, on a bare engine over `w`'s tree and cube.
Result<SkylineOutput> EngineSkyline(Workbench& w, const PredicateSet& preds,
                                    const SkylineQueryOptions& options,
                                    PrunedLists lists) {
  auto probe = w.cube()->MakeProbe(preds);
  if (!probe.ok()) return probe.status();
  SkylineEngine engine(w.tree(), probe->get(), nullptr, options);
  engine.set_pruned_lists(lists);
  return engine.Run();
}

Result<TopKOutput> EngineTopK(Workbench& w, const PredicateSet& preds,
                              const RankingFunction& f, size_t k,
                              PrunedLists lists) {
  auto probe = w.cube()->MakeProbe(preds);
  if (!probe.ok()) return probe.status();
  TopKEngine engine(w.tree(), probe->get(), nullptr, &f, k);
  engine.set_pruned_lists(lists);
  return engine.Run();
}

class StressTest : public ::testing::TestWithParam<int> {};

TEST_P(StressTest, RandomPipeline) {
  Random rng(5000 + GetParam());

  SyntheticConfig config;
  config.num_tuples = 800 + rng.Uniform(2000);
  config.num_bool = 1 + static_cast<int>(rng.Uniform(3));
  config.num_pref = 2 + static_cast<int>(rng.Uniform(3));
  config.bool_cardinality = 2 + static_cast<uint32_t>(rng.Uniform(6));
  config.dist = static_cast<PrefDistribution>(rng.Uniform(3));
  config.seed = 6000 + GetParam();

  WorkbenchOptions options;
  options.rtree.max_entries = 6 + static_cast<uint32_t>(rng.Uniform(20));
  options.rtree_by_insertion = rng.Uniform(2) == 0;
  auto wb_result = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(wb_result.ok());
  Workbench& w = **wb_result;

  std::vector<bool> alive(w.data().num_tuples(), true);

  // Local oracles honouring the alive set (deleted tuples leave the tree
  // but keep their Dataset rows).
  auto matches = [&](const PredicateSet& preds, TupleId t) {
    return t < alive.size() && alive[t] && preds.Matches(w.data(), t);
  };
  auto oracle_skyband = [&](const PredicateSet& preds,
                            const std::vector<float>& origin, size_t k) {
    auto coord = [&](TupleId t, int d) -> double {
      double v = w.data().PrefValue(t, d);
      return origin.empty() ? v : std::abs(v - origin[d]);
    };
    std::vector<TupleId> cand;
    for (TupleId t = 0; t < w.data().num_tuples(); ++t) {
      if (matches(preds, t)) cand.push_back(t);
    }
    std::vector<TupleId> out;
    for (TupleId t : cand) {
      size_t dom = 0;
      for (TupleId s : cand) {
        if (s == t) continue;
        bool all_le = true, one_lt = false;
        for (int d = 0; d < w.data().num_pref(); ++d) {
          double sv = coord(s, d), tv = coord(t, d);
          if (sv > tv) { all_le = false; break; }
          if (sv < tv) one_lt = true;
        }
        if (all_le && one_lt && ++dom >= k) break;
      }
      if (dom < k) out.push_back(t);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto oracle_topk = [&](const PredicateSet& preds, const RankingFunction& f,
                         size_t k) {
    std::vector<std::pair<double, TupleId>> scored;
    for (TupleId t = 0; t < w.data().num_tuples(); ++t) {
      if (matches(preds, t)) {
        scored.emplace_back(f.Score(w.data().PrefPoint(t)), t);
      }
    }
    std::sort(scored.begin(), scored.end());
    if (scored.size() > k) scored.resize(k);
    return scored;
  };

  auto random_preds = [&]() {
    PredicateSet preds;
    int n = static_cast<int>(rng.Uniform(config.num_bool + 1));
    for (int i = 0; i < n; ++i) {
      preds.Add({static_cast<int>(rng.Uniform(config.num_bool)),
                 static_cast<uint32_t>(rng.Uniform(config.bool_cardinality))});
    }
    return preds;
  };

  auto verify_battery = [&](const char* phase) {
    SCOPED_TRACE(phase);
    for (int q = 0; q < 6; ++q) {
      PredicateSet preds = random_preds();
      // Plain skyline, then skyband / dynamic skyline.
      for (bool plain : {true, false}) {
        SkylineQueryOptions sopt;
        if (!plain) {
          if (rng.Uniform(2) == 0) {
            for (int d = 0; d < config.num_pref; ++d) {
              sopt.origin.push_back(static_cast<float>(rng.NextDouble()));
            }
          }
          sopt.skyband_k = 1 + rng.Uniform(3);
        }
        auto resp = RunSignature(w, QueryRequest::Skyline(preds, sopt));
        ASSERT_TRUE(resp.ok()) << resp.status().ToString();
        EXPECT_EQ(resp->tids,
                  oracle_skyband(preds, sopt.origin, sopt.skyband_k))
            << preds.ToString();
        auto kept = EngineSkyline(w, preds, sopt, PrunedLists::kKeep);
        auto dropped = EngineSkyline(w, preds, sopt, PrunedLists::kDrop);
        ASSERT_TRUE(kept.ok() && dropped.ok());
        EXPECT_EQ(SkylineTids(*kept), resp->tids);
        ExpectCountersEqual(resp->counters, kept->counters);
        ExpectListParity(*kept, *dropped);
      }
      // Top-k with a random ranking function family.
      {
        size_t k = 1 + rng.Uniform(30);
        std::shared_ptr<const RankingFunction> f;
        std::vector<double> weights, target;
        for (int d = 0; d < config.num_pref; ++d) {
          weights.push_back(0.05 + rng.NextDouble());
          target.push_back(rng.NextDouble());
        }
        switch (rng.Uniform(3)) {
          case 0:
            f = std::make_shared<LinearRanking>(weights);
            break;
          case 1:
            f = std::make_shared<WeightedL2Ranking>(target, weights);
            break;
          default:
            f = std::make_shared<MinkowskiRanking>(target, weights, 3.0);
        }
        auto resp = RunSignature(w, QueryRequest::TopK(preds, f, k));
        ASSERT_TRUE(resp.ok()) << resp.status().ToString();
        auto naive = oracle_topk(preds, *f, k);
        ASSERT_EQ(resp->scores.size(), naive.size()) << preds.ToString();
        for (size_t i = 0; i < naive.size(); ++i) {
          EXPECT_NEAR(resp->scores[i], naive[i].first, 1e-6)
              << preds.ToString() << " rank " << i;
        }
        auto kept = EngineTopK(w, preds, *f, k, PrunedLists::kKeep);
        auto dropped = EngineTopK(w, preds, *f, k, PrunedLists::kDrop);
        ASSERT_TRUE(kept.ok() && dropped.ok());
        ASSERT_EQ(kept->results.size(), resp->tids.size());
        for (size_t i = 0; i < resp->tids.size(); ++i) {
          EXPECT_EQ(kept->results[i].id, resp->tids[i]) << "rank " << i;
          EXPECT_EQ(kept->results[i].key, resp->scores[i]) << "rank " << i;
        }
        ExpectCountersEqual(resp->counters, kept->counters);
        ExpectListParity(*kept, *dropped);
      }
    }
  };

  verify_battery("fresh build");

  // Mutation round: a batch of inserts and deletes, incrementally
  // maintained, then the whole battery again (the oracles honour `alive`).
  SyntheticConfig extra_config = config;
  extra_config.num_tuples = 150;
  extra_config.seed = 7000 + GetParam();
  Dataset extra = GenerateSynthetic(extra_config);
  WriteBatch batch;
  for (TupleId i = 0; i < extra.num_tuples(); ++i) {
    auto bools = extra.BoolRow(i);
    auto prefs = extra.PrefPoint(i);
    batch.inserts.push_back({{bools.begin(), bools.end()},
                             {prefs.begin(), prefs.end()}});
  }
  alive.resize(alive.size() + extra.num_tuples(), true);
  for (int i = 0; i < 60; ++i) {
    TupleId victim = rng.Uniform(config.num_tuples);
    if (!alive[victim]) continue;
    batch.deletes.push_back(victim);
    alive[victim] = false;
  }
  auto applied = w.Apply(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  verify_battery("after maintenance");
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace pcube
