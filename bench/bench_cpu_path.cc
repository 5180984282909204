// CPU cost of the warm signature query path against the plain scan it has
// to beat (ROADMAP item 2), in CPU mode: no simulated page latency, one
// thread, the result cache (L1) off so every Run executes Algorithm 1.
//
// For each row count it prints four timings per query:
//   warm   Workbench::Run after one untimed pass over the same queries, so
//          the buffer pool and the decoded-signature cache (L2) are warm;
//   cold   ColdStart() before every Run (only the Run is timed): empty pool,
//          every L2 entry stale;
//   scan   NaiveSkyline over the in-memory Dataset, the floor;
//   evict  a 1000-request mixed stream (35/30/15/20 one-predicate skyline /
//          top-10 / 3-skyband / two-predicate) through a 256-page pool, the
//          in-process analogue of the repository benchmark's evict-mixed
//          workload.
// The warm / cold / scan queries are one-predicate skylines, C = 100,
// Dp = 3, 100 queries. Every answer is checked against the naive scan; the
// program exits 1 on the first mismatch, which makes it the scripts/ci.sh
// `cpu-path` smoke. Writes BENCH_cpu_path.json to the working directory.
//
// Environment knobs:
//   PCUBE_CPU_PATH_ROWS  comma-separated row counts (default "20000,200000")
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "data/generators.h"
#include "query/reference.h"
#include "workbench/workbench.h"

using namespace pcube;

namespace {

constexpr size_t kQueries = 100;
constexpr size_t kStreamRequests = 1000;
constexpr size_t kStreamPoolPages = 256;

std::vector<uint64_t> RowCounts() {
  const char* env = std::getenv("PCUBE_CPU_PATH_ROWS");
  std::vector<uint64_t> rows;
  std::stringstream in(env != nullptr ? env : "20000,200000");
  std::string item;
  while (std::getline(in, item, ',')) {
    uint64_t n = std::strtoull(item.c_str(), nullptr, 10);
    if (n > 0) rows.push_back(n);
  }
  if (rows.empty()) rows = {20000, 200000};
  return rows;
}

SyntheticConfig Config(uint64_t rows) {
  SyntheticConfig config;
  config.num_tuples = rows;
  config.num_bool = 3;
  config.num_pref = 3;
  config.bool_cardinality = 100;
  config.dist = PrefDistribution::kUniform;
  config.seed = 42;
  return config;
}

std::unique_ptr<Workbench> BuildOrDie(const SyntheticConfig& config,
                                      size_t pool_pages) {
  WorkbenchOptions options;
  options.result_cache_mb = 0;
  options.read_latency_us = 0;
  if (pool_pages > 0) options.pool_pages = pool_pages;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  PCUBE_CHECK(wb.ok()) << wb.status().ToString();
  return std::move(*wb);
}

/// One-predicate skylines over every boolean dimension.
std::vector<QueryRequest> SkylineQueries(const SyntheticConfig& config) {
  Random rng(2008);
  std::vector<QueryRequest> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    PredicateSet preds{
        {static_cast<int>(rng.Uniform(config.num_bool)),
         static_cast<uint32_t>(rng.Uniform(config.bool_cardinality))}};
    queries.push_back(QueryRequest::Skyline(std::move(preds)));
  }
  return queries;
}

/// The evict stream's request mix, shuffled in blocks of 20.
std::vector<QueryRequest> MixedStream(const SyntheticConfig& config) {
  enum Type { kSky1, kTopK1, kBand1, kSky2, kTopK2 };
  const std::vector<std::pair<Type, size_t>> block = {
      {kSky1, 7}, {kTopK1, 6}, {kBand1, 3}, {kSky2, 2}, {kTopK2, 2}};
  Random rng(2009);
  std::vector<Type> order;
  while (order.size() < kStreamRequests) {
    const size_t begin = order.size();
    for (const auto& [type, n] : block) order.insert(order.end(), n, type);
    for (size_t i = order.size() - begin; i > 1; --i) {
      std::swap(order[begin + i - 1], order[begin + rng.Uniform(i)]);
    }
  }
  order.resize(kStreamRequests);
  auto predicate = [&](int exclude_dim) {
    int dim = static_cast<int>(rng.Uniform(config.num_bool));
    if (dim == exclude_dim) dim = (dim + 1) % config.num_bool;
    return Predicate{
        dim, static_cast<uint32_t>(rng.Uniform(config.bool_cardinality))};
  };
  std::vector<QueryRequest> requests;
  for (Type type : order) {
    PredicateSet preds{predicate(-1)};
    if (type == kSky2 || type == kTopK2) {
      preds.Add(predicate(preds.predicates()[0].dim));
    }
    if (type == kTopK1 || type == kTopK2) {
      std::vector<double> weights(config.num_pref);
      for (double& w : weights) w = 0.1 + 0.9 * rng.NextDouble();
      requests.push_back(QueryRequest::TopK(
          std::move(preds), std::make_shared<LinearRanking>(weights), 10));
    } else {
      SkylineQueryOptions options;
      if (type == kBand1) options.skyband_k = 3;
      requests.push_back(QueryRequest::Skyline(std::move(preds), options));
    }
  }
  return requests;
}

/// The naive scan's answer in the order Run reports it.
std::vector<TupleId> NaiveAnswer(const Dataset& data,
                                 const QueryRequest& request) {
  std::vector<TupleId> tids;
  if (request.kind == QueryRequest::Kind::kTopK) {
    for (const auto& [tid, score] :
         NaiveTopK(data, request.preds, *request.ranking, request.k)) {
      tids.push_back(tid);
    }
  } else {
    tids = NaiveSkyband(data, request.preds, request.skyline.pref_dims,
                        request.skyline.origin, request.skyline.skyband_k);
  }
  return tids;
}

/// Runs every request, timing only Run; `cold` calls ColdStart() first.
/// Exits the program when an answer differs from `expected`.
double MsPerQuery(Workbench* wb, const std::vector<QueryRequest>& requests,
                  const std::vector<std::vector<TupleId>>& expected,
                  bool cold, const char* label) {
  double seconds = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (cold) PCUBE_CHECK_OK(wb->ColdStart());
    Timer t;
    auto resp = wb->Run(requests[i]);
    seconds += t.ElapsedSeconds();
    PCUBE_CHECK(resp.ok()) << resp.status().ToString();
    std::vector<TupleId> got = resp->tids;
    std::vector<TupleId> want = expected[i];
    if (requests[i].kind == QueryRequest::Kind::kTopK) {
      // Ties may order differently; the tid sets must agree.
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
    }
    if (got != want) {
      std::fprintf(stderr, "cpu-path: %s query %zu (%s) differs from the "
                   "naive scan: %zu vs %zu result(s)\n",
                   label, i, requests[i].Canonical().c_str(), got.size(),
                   want.size());
      std::exit(1);
    }
  }
  return seconds * 1e3 / static_cast<double>(requests.size());
}

struct Row {
  uint64_t rows = 0;
  double warm_ms = 0;
  double cold_ms = 0;
  double scan_ms = 0;
  double evict_ms = 0;
};

}  // namespace

int main() {
  std::vector<Row> table;
  for (uint64_t rows : RowCounts()) {
    const SyntheticConfig config = Config(rows);
    Row row;
    row.rows = rows;
    {
      std::unique_ptr<Workbench> wb = BuildOrDie(config, 0);
      const std::vector<QueryRequest> queries = SkylineQueries(config);
      std::vector<std::vector<TupleId>> expected;
      Timer scan;
      for (const QueryRequest& q : queries) {
        expected.push_back(NaiveSkyline(wb->data(), q.preds));
      }
      row.scan_ms = scan.ElapsedSeconds() * 1e3 / queries.size();
      row.cold_ms = MsPerQuery(wb.get(), queries, expected, true, "cold");
      MsPerQuery(wb.get(), queries, expected, false, "warm-up");
      row.warm_ms = MsPerQuery(wb.get(), queries, expected, false, "warm");
    }
    {
      std::unique_ptr<Workbench> wb = BuildOrDie(config, kStreamPoolPages);
      const std::vector<QueryRequest> stream = MixedStream(config);
      std::vector<std::vector<TupleId>> expected;
      for (const QueryRequest& q : stream) {
        expected.push_back(NaiveAnswer(wb->data(), q));
      }
      row.evict_ms = MsPerQuery(wb.get(), stream, expected, false, "evict");
    }
    table.push_back(row);
  }

  std::printf("%-8s %10s %10s %10s %10s   (ms per query)\n", "rows", "warm",
              "cold", "scan", "evict");
  for (const Row& r : table) {
    std::printf("%-8llu %10.3f %10.3f %10.3f %10.3f\n",
                static_cast<unsigned long long>(r.rows), r.warm_ms, r.cold_ms,
                r.scan_ms, r.evict_ms);
  }

  std::ofstream json("BENCH_cpu_path.json");
  json << "{\n  \"workload\": {\"queries\": " << kQueries
       << ", \"stream_requests\": " << kStreamRequests
       << ", \"stream_pool_pages\": " << kStreamPoolPages
       << ", \"unit\": \"ms_per_query\"},\n  \"rows\": [\n";
  for (size_t i = 0; i < table.size(); ++i) {
    const Row& r = table[i];
    json << "    {\"rows\": " << r.rows << ", \"warm\": " << r.warm_ms
         << ", \"cold\": " << r.cold_ms << ", \"scan\": " << r.scan_ms
         << ", \"evict\": " << r.evict_ms << "}"
         << (i + 1 < table.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  return 0;
}
