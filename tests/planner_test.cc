// Plan-choice tests for Workbench::Run and Workbench::Estimate: both plans
// return correct answers, the crossover of Fig. 11 drives the choice, the
// executed cost is never far from the better plan, and requests outside
// the schema fail typed.
#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "query/reference.h"
#include "run_signature.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

std::unique_ptr<Workbench> MakeWorkbench(uint32_t cardinality, uint64_t seed) {
  SyntheticConfig config;
  config.num_tuples = 20000;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = cardinality;
  config.seed = seed;
  auto wb = Workbench::Build(GenerateSynthetic(config), WorkbenchOptions{});
  PCUBE_CHECK(wb.ok());
  return std::move(*wb);
}

TEST(PlannerTest, AnswersAlwaysCorrectEitherPlan) {
  for (uint32_t c : {5u, 2000u}) {
    auto wb = MakeWorkbench(c, 300 + c);
    Random rng(c);
    for (int trial = 0; trial < 4; ++trial) {
      PredicateSet preds{{0, static_cast<uint32_t>(rng.Uniform(c))}};
      auto out = wb->Run(QueryRequest::Skyline(preds));
      ASSERT_TRUE(out.ok());
      EXPECT_EQ(out->tids, NaiveSkyline(wb->data(), preds))
          << "C=" << c << " " << preds.ToString();
    }
  }
}

TEST(PlannerTest, ChoosesSignatureForBroadPredicates) {
  // C = 5: each cell holds 20% of 20k tuples; fetching 4000 tuples at one
  // page each dwarfs the space traversal.
  auto wb = MakeWorkbench(5, 301);
  auto est = wb->Estimate({{0, 2}});
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->choice, PlanChoice::kSignature);
  EXPECT_GT(est->matching_tuples, 3000u);
}

TEST(PlannerTest, ChoosesBooleanForNeedleQueries) {
  // C = 5000 over 20k tuples: ~4 matches; fetching them directly beats any
  // traversal.
  SyntheticConfig config;
  config.num_tuples = 20000;
  config.num_bool = 1;
  config.num_pref = 2;
  config.bool_cardinality = 5000;
  config.seed = 302;
  auto wb = Workbench::Build(GenerateSynthetic(config), WorkbenchOptions{});
  ASSERT_TRUE(wb.ok());
  auto est = (*wb)->Estimate({{0, 123}});
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->choice, PlanChoice::kBooleanFirst);
  EXPECT_LT(est->matching_tuples, 50u);
  // And the executed plan is indeed cheap.
  auto out = (*wb)->Run(QueryRequest::Skyline({{0, 123}}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->tids, NaiveSkyline((*wb)->data(), {{0, 123}}));
  EXPECT_LT(out->io.TotalReads(), 60u);
}

TEST(PlannerTest, ExecutedCostNeverCatastrophic) {
  // Across a selectivity sweep, the planner's executed page count stays
  // within a small factor of the better of the two plans measured directly.
  for (uint32_t c : {10u, 100u, 1000u}) {
    auto wb = MakeWorkbench(c, 310 + c);
    PredicateSet preds{{0, c / 2}};

    ASSERT_TRUE(wb->ColdStart().ok());
    auto sig = RunSignature(*wb, QueryRequest::Skyline(preds));
    ASSERT_TRUE(sig.ok());
    uint64_t sig_pages = sig->io.TotalReads();

    ASSERT_TRUE(wb->ColdStart().ok());
    BooleanFirstExecutor boolean(&wb->indices(), wb->table());
    ASSERT_TRUE(boolean.Skyline(preds).ok());
    uint64_t bool_pages = wb->IoSince().TotalReads();

    ASSERT_TRUE(wb->ColdStart().ok());
    auto out = wb->Run(QueryRequest::Skyline(preds));
    ASSERT_TRUE(out.ok());
    uint64_t best = std::min(sig_pages, bool_pages);
    EXPECT_LE(out->io.TotalReads(), 3 * best + 10)
        << "C=" << c << " sig=" << sig_pages << " bool=" << bool_pages;
  }
}

TEST(PlannerTest, TopKPlansCorrectly) {
  auto wb = MakeWorkbench(50, 320);
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.6, 0.4});
  PredicateSet preds{{1, 7}};
  auto out = wb->Run(QueryRequest::TopK(preds, f, 12));
  ASSERT_TRUE(out.ok());
  auto naive = NaiveTopK(wb->data(), preds, *f, 12);
  ASSERT_EQ(out->tids.size(), naive.size());
  ASSERT_EQ(out->scores.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(out->scores[i], naive[i].second, 1e-9);
  }
}

TEST(PlannerTest, CrossoverFlipsAndBothPlansAgree) {
  // High-cardinality dimension → a needle predicate: Estimate() must flip
  // to boolean-first, and forcing either plan through the hint must return
  // the exact same (sorted) tid set.
  auto wb = MakeWorkbench(5000, 330);
  PredicateSet preds{{0, 42}};
  auto est = wb->Estimate(preds);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->choice, PlanChoice::kBooleanFirst);

  QueryRequest sig_req = QueryRequest::Skyline(preds);
  sig_req.hint = PlanHint::kSignature;
  auto sig = wb->Run(sig_req);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->estimate.choice, PlanChoice::kSignature);

  QueryRequest bool_req = QueryRequest::Skyline(preds);
  bool_req.hint = PlanHint::kBooleanFirst;
  auto boolean = wb->Run(bool_req);
  ASSERT_TRUE(boolean.ok());
  EXPECT_EQ(boolean->estimate.choice, PlanChoice::kBooleanFirst);

  EXPECT_EQ(sig->tids, boolean->tids);
  EXPECT_EQ(sig->tids, NaiveSkyline(wb->data(), preds));

  // And a broad predicate on a low-cardinality instance flips back.
  auto broad = MakeWorkbench(5, 331);
  auto broad_est = broad->Estimate({{0, 2}});
  ASSERT_TRUE(broad_est.ok());
  EXPECT_EQ(broad_est->choice, PlanChoice::kSignature);
}

TEST(PlannerTest, SurfacesCountersAndTraceFromExecutedPlan) {
  auto wb = MakeWorkbench(50, 340);
  PredicateSet preds{{0, 7}};

  QueryRequest sig_req = QueryRequest::Skyline(preds);
  sig_req.hint = PlanHint::kSignature;
  auto sig = wb->Run(sig_req);
  ASSERT_TRUE(sig.ok());
  // The signature engine's counters must come through the response.
  EXPECT_GT(sig->counters.nodes_expanded, 0u);
  EXPECT_GT(sig->counters.heap_peak, 0u);
  EXPECT_GT(sig->trace.StageSeconds("signature_probe"), 0.0);
  EXPECT_GT(sig->io.TotalReads(), 0u);
  EXPECT_GT(sig->trace_id(), 0u);
  // A forced plan is not costed; an open one is.
  EXPECT_EQ(sig->trace.StageSeconds("plan_estimate"), 0.0);
  auto costed = wb->Run(QueryRequest::Skyline({{1, 7}}));
  ASSERT_TRUE(costed.ok());
  EXPECT_GT(costed->trace.StageSeconds("plan_estimate"), 0.0);

  QueryRequest bool_req = QueryRequest::Skyline(preds);
  bool_req.hint = PlanHint::kBooleanFirst;
  auto boolean = wb->Run(bool_req);
  ASSERT_TRUE(boolean.ok());
  // Boolean-first reports its in-memory working set (Fig. 10 accounting).
  EXPECT_GT(boolean->counters.heap_peak, 0u);
  EXPECT_EQ(boolean->counters.nodes_expanded, 0u);
  EXPECT_GT(boolean->trace.StageSeconds("boolean_first"), 0.0);
}

TEST(PlannerTest, RequestsOutsideTheSchemaAreRejected) {
  // Two boolean and two preference dimensions: dimension 2 exists in
  // neither. Both entry points must refuse such a request typed instead of
  // indexing past the boolean indices, a point or a bounding box.
  auto wb = MakeWorkbench(50, 350);
  EXPECT_TRUE(wb->Estimate({{2, 1}}).status().IsInvalidArgument());
  EXPECT_TRUE(wb->Estimate({{-1, 1}}).status().IsInvalidArgument());
  std::vector<QueryRequest> bad = {QueryRequest::Skyline({{0, 3}, {7, 1}})};
  for (std::vector<int> pref_dims :
       std::vector<std::vector<int>>{{2}, {-1}, {0, 7}}) {
    SkylineQueryOptions options;
    options.pref_dims = std::move(pref_dims);
    bad.push_back(QueryRequest::Skyline({{0, 3}}, options));
  }
  SkylineQueryOptions origin;
  origin.origin = {0.5f, 0.5f, 0.5f};
  bad.push_back(QueryRequest::Skyline({{0, 3}}, origin));
  SkylineQueryOptions band;
  band.skyband_k = 0;
  bad.push_back(QueryRequest::Skyline({{0, 3}}, band));
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.5, 0.5});
  bad.push_back(QueryRequest::TopK({{4095, 0}}, f, 3));
  bad.push_back(QueryRequest::TopK(
      {{0, 3}}, std::make_shared<LinearRanking>(std::vector<double>{1.0}), 3));
  bad.push_back(QueryRequest::TopK({{0, 3}}, nullptr, 3));
  for (size_t i = 0; i < bad.size(); ++i) {
    for (PlanHint hint : {PlanHint::kAuto, PlanHint::kSignature,
                          PlanHint::kBooleanFirst}) {
      bad[i].hint = hint;
      EXPECT_TRUE(wb->Run(bad[i]).status().IsInvalidArgument())
          << "request " << i;
    }
  }
  // Nothing was cached or broken: a valid query still answers exactly.
  auto ok = wb->Run(QueryRequest::Skyline({{0, 3}}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->tids, NaiveSkyline(wb->data(), {{0, 3}}));
}

}  // namespace
}  // namespace pcube
