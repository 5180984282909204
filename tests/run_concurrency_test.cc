// Concurrency contract of the one query path: Workbench::Run is safe from
// any number of threads while RunBatch, Apply and ColdStart run beside it.
// Three threads call Run, one calls RunBatch, and one writer commits
// inserts through Apply (taking a cold start every few batches), all on a
// single workbench with a small buffer pool so pages evict under the
// queries' pins. The writer only inserts rows whose boolean values no query
// selects, so every answer must equal the naive scan of the initial data —
// while the inserts still move the R-tree, bump the global epoch and churn
// the caches underneath. Runs under TSan via scripts/ci.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "query/reference.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

constexpr uint32_t kCardinality = 8;
/// The writer's value on every boolean dimension; no query selects it.
constexpr uint32_t kWriterValue = kCardinality - 1;

struct Expected {
  std::vector<TupleId> tids;
  std::vector<double> scores;
};

TEST(RunConcurrencyTest, RunRunBatchAndApplyShareOneWorkbench) {
  SyntheticConfig config;
  config.num_tuples = 2000;
  config.num_bool = 3;
  config.num_pref = 2;
  config.bool_cardinality = kCardinality;
  config.seed = 17;
  WorkbenchOptions options;
  options.pool_pages = 48;
  options.pool_stripes = 4;
  auto built = Workbench::Build(GenerateSynthetic(config), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Workbench* wb = built->get();

  // A mixed pool: plain and two-predicate skylines (containment
  // drill-downs), skybands (always the signature plan), top-k.
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.7, 0.3});
  std::vector<QueryRequest> queries;
  for (uint32_t v = 0; v < kWriterValue; ++v) {
    queries.push_back(QueryRequest::Skyline({{0, v}}));
    queries.push_back(QueryRequest::Skyline({{0, v}, {1, (v + 3) % 7}}));
    queries.push_back(QueryRequest::TopK({{2, v}}, f, 6));
    SkylineQueryOptions band;
    band.skyband_k = 2;
    queries.push_back(QueryRequest::Skyline({{1, v}}, band));
  }
  // Computed before any thread starts: the answers never change.
  std::vector<Expected> expected;
  for (const QueryRequest& q : queries) {
    Expected e;
    if (q.kind == QueryRequest::Kind::kTopK) {
      for (const auto& [tid, score] : NaiveTopK(wb->data(), q.preds, *f, q.k)) {
        e.tids.push_back(tid);
        e.scores.push_back(score);
      }
    } else {
      e.tids = NaiveSkyband(wb->data(), q.preds, {}, {}, q.skyline.skyband_k);
    }
    expected.push_back(std::move(e));
  }

  std::atomic<uint64_t> failures{0};
  std::mutex first_mu;
  std::string first_error;
  auto report = [&](const std::string& msg) {
    failures.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_error.empty()) first_error = msg;
  };
  auto check = [&](size_t i, const QueryResponse& resp) {
    if (resp.tids != expected[i].tids || resp.scores != expected[i].scores) {
      report("query " + std::to_string(i) + " answered wrong");
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Random rng(100 + t);
      for (int iter = 0; iter < 60; ++iter) {
        const size_t i = rng.Uniform(queries.size());
        auto resp = wb->Run(queries[i]);
        if (!resp.ok()) {
          report("Run failed: " + resp.status().ToString());
          return;
        }
        check(i, *resp);
      }
    });
  }
  threads.emplace_back([&] {
    for (int iter = 0; iter < 3; ++iter) {
      BatchOutput out = wb->RunBatch(queries, 2);
      for (size_t i = 0; i < queries.size(); ++i) {
        if (!out.results[i].status.ok()) {
          report("RunBatch query failed: " +
                 out.results[i].status.ToString());
        } else {
          check(i, out.results[i].response);
        }
      }
    }
  });
  threads.emplace_back([&] {
    Random rng(7);
    for (int b = 0; b < 24; ++b) {
      WriteBatch batch;
      batch.ack = b % 2 == 0 ? WriteBatch::Ack::kApplied
                             : WriteBatch::Ack::kDurable;
      for (int r = 0; r < 4; ++r) {
        batch.inserts.push_back(
            {{kWriterValue, kWriterValue, kWriterValue},
             {static_cast<float>(rng.NextDouble()),
              static_cast<float>(rng.NextDouble())}});
      }
      auto applied = wb->Apply(batch);
      if (!applied.ok()) {
        report("Apply failed: " + applied.status().ToString());
        return;
      }
      if (b % 8 == 7) {
        Status cold = wb->ColdStart();
        if (!cold.ok()) report("ColdStart failed: " + cold.ToString());
      }
    }
  });
  for (auto& t : threads) t.join();
  ASSERT_TRUE(wb->DrainWrites().ok());

  EXPECT_EQ(failures.load(), 0u) << first_error;
  EXPECT_EQ(wb->data().num_tuples(), config.num_tuples + 24 * 4);
}

}  // namespace
}  // namespace pcube
