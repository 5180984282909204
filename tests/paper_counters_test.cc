// Exact paper-figure counters on the 20k paper configuration (§VI.B.1:
// seed 42, Db = Dp = 3, C = 100, uniform; one predicate on dimension 0).
// Every run starts from ColdStart(), so page counts are physical reads
// through an empty pool and every counter below is deterministic. A change
// to the query path's CPU cost must leave all of them unchanged; the
// Fig. 9 and Fig. 10 values are the ones EXPERIMENTS.md reports.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/domination_first.h"
#include "data/generators.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

SyntheticConfig PaperConfig20k() {
  SyntheticConfig config;
  config.num_tuples = 20000;
  config.num_bool = 3;
  config.num_pref = 3;
  config.bool_cardinality = 100;
  config.dist = PrefDistribution::kUniform;
  config.seed = 42;
  return config;
}

PredicateSet OnePredicate() { return PredicateSet{{0, 50}}; }

struct Counts {
  uint64_t nodes_expanded;
  uint64_t pruned_boolean;
  uint64_t pruned_preference;
  uint64_t heap_peak;
};

void ExpectCounts(const EngineCounters& got, const Counts& want) {
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded);
  EXPECT_EQ(got.pruned_boolean, want.pruned_boolean);
  EXPECT_EQ(got.pruned_preference, want.pruned_preference);
  EXPECT_EQ(got.heap_peak, want.heap_peak);
}

class PaperCountersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto wb = Workbench::Build(GenerateSynthetic(PaperConfig20k()), {});
    ASSERT_TRUE(wb.ok()) << wb.status().ToString();
    wb_ = wb->release();
  }
  static void TearDownTestSuite() {
    delete wb_;
    wb_ = nullptr;
  }

  /// Runs `request` on the signature plan from a cold pool.
  static QueryResponse RunSignature(QueryRequest request) {
    request.hint = PlanHint::kSignature;
    EXPECT_TRUE(wb_->ColdStart().ok());
    auto resp = wb_->Run(request);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    return resp.ok() ? std::move(*resp) : QueryResponse();
  }

  static Workbench* wb_;
};

Workbench* PaperCountersTest::wb_ = nullptr;

TEST_F(PaperCountersTest, Fig9DiskAccesses) {
  ASSERT_TRUE(wb_->ColdStart().ok());
  auto dom =
      DominationFirstSkyline(*wb_->tree(), *wb_->table(), OnePredicate());
  ASSERT_TRUE(dom.ok());
  IoStats dom_io = wb_->IoSince();
  EXPECT_EQ(dom_io.ReadCount(IoCategory::kRtreeBlock), 84u);      // DBlock
  EXPECT_EQ(dom_io.ReadCount(IoCategory::kBooleanVerify), 118u);  // DBool

  ASSERT_TRUE(wb_->ColdStart().ok());
  auto sig = wb_->SignatureSkyline(OnePredicate());
  ASSERT_TRUE(sig.ok());
  IoStats sig_io = wb_->IoSince();
  EXPECT_EQ(sig_io.ReadCount(IoCategory::kRtreeBlock), 60u);  // SBlock
  EXPECT_EQ(sig_io.ReadCount(IoCategory::kSignature), 1u);    // SSig
  EXPECT_EQ(sig->skyline.size(), dom->skyline.size());
}

TEST_F(PaperCountersTest, Fig10HeapPeak) {
  ASSERT_TRUE(wb_->ColdStart().ok());
  auto sig = wb_->SignatureSkyline(OnePredicate());
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->counters.heap_peak, 94u);

  ASSERT_TRUE(wb_->ColdStart().ok());
  auto dom =
      DominationFirstSkyline(*wb_->tree(), *wb_->table(), OnePredicate());
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ(dom->counters.heap_peak, 1423u);
}

TEST_F(PaperCountersTest, SkylineCounters) {
  QueryResponse resp = RunSignature(QueryRequest::Skyline(OnePredicate()));
  ExpectCounts(resp.counters, {60, 1933, 4546, 94});
}

TEST_F(PaperCountersTest, SkybandCounters) {
  SkylineQueryOptions options;
  options.skyband_k = 3;
  QueryResponse resp =
      RunSignature(QueryRequest::Skyline(OnePredicate(), options));
  ExpectCounts(resp.counters, {66, 3345, 3771, 95});
}

TEST_F(PaperCountersTest, TopKCounters) {
  auto ranking =
      std::make_shared<LinearRanking>(std::vector<double>{0.5, 0.3, 0.2});
  QueryResponse resp =
      RunSignature(QueryRequest::TopK(OnePredicate(), ranking, 10));
  ExpectCounts(resp.counters, {18, 1798, 0, 67});
  EXPECT_EQ(resp.tids.size(), 10u);
}

}  // namespace
}  // namespace pcube
