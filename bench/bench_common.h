// Shared infrastructure for the figure-reproduction benchmarks.
//
// The paper sweeps T in {1M, 5M, 10M}; by default these benchmarks use a
// laptop-scale sweep {20k, 100k, 200k} that preserves the relative shapes
// (who wins, slopes, crossovers). Set PCUBE_BENCH_SCALE=50 to reproduce the
// paper's absolute scale (50 * 20k = 1M etc.).
//
// All "disk access" numbers are physical page fetches through a cold buffer
// pool (see DESIGN.md §3), so they are deterministic.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/timer.h"
#include "data/covertype.h"
#include "data/generators.h"
#include "workbench/workbench.h"

namespace pcube::bench {

/// Multiplier applied to every dataset size (env PCUBE_BENCH_SCALE).
inline uint64_t Scale() {
  static uint64_t scale = [] {
    const char* env = std::getenv("PCUBE_BENCH_SCALE");
    if (env == nullptr) return uint64_t{1};
    uint64_t v = std::strtoull(env, nullptr, 10);
    return v == 0 ? uint64_t{1} : v;
  }();
  return scale;
}

/// The three T values standing in for the paper's 1M / 5M / 10M.
inline std::vector<uint64_t> TupleSweep() {
  return {20000 * Scale(), 100000 * Scale(), 200000 * Scale()};
}

/// Paper defaults (§VI.B.1): Db = Dp = 3, C = 100, uniform distribution.
inline SyntheticConfig PaperConfig(uint64_t num_tuples) {
  SyntheticConfig config;
  config.num_tuples = num_tuples;
  config.num_bool = 3;
  config.num_pref = 3;
  config.bool_cardinality = 100;
  config.dist = PrefDistribution::kUniform;
  config.seed = 42;
  return config;
}

/// Cache of built workbenches, keyed by a config string — figure benches
/// re-query the same instance many times. `gen` builds the Dataset on the
/// first call for a key; every caller in a bench binary shares one cache.
inline Workbench* CachedWorkbench(const std::string& key,
                                  const std::function<Dataset()>& gen,
                                  WorkbenchOptions options = {}) {
  static std::map<std::string, std::unique_ptr<Workbench>>* cache =
      new std::map<std::string, std::unique_ptr<Workbench>>();
  auto it = cache->find(key);
  if (it == cache->end()) {
    auto wb = Workbench::Build(gen(), options);
    PCUBE_CHECK(wb.ok()) << wb.status().ToString();
    it = cache->emplace(key, std::move(*wb)).first;
  }
  return it->second.get();
}

/// The standard single-predicate query of the skyline experiments.
inline PredicateSet OnePredicate(uint32_t cardinality) {
  return PredicateSet{{0, cardinality / 2}};
}

/// The k-predicate queries of the CoverType experiments (Figs. 14-16):
/// an OLAP drill-down chain from broad to narrow — the first predicate goes
/// on a low-cardinality dimension (weakly selective), each further predicate
/// on a higher-cardinality one. Values are the most frequent code of each
/// dimension so every prefix of the chain has a non-empty answer.
inline PredicateSet CoverTypePredicates(int k) {
  static const int kDims[] = {5, 4, 3, 2};  // cardinalities 2, 7, 67, 185
  PCUBE_CHECK_LE(k, 4);
  PredicateSet preds;
  for (int i = 0; i < k; ++i) preds.Add({kDims[i], 0});
  return preds;
}

/// Simulated random-page-read latency (env PCUBE_PAGE_LATENCY_US, default
/// 5000 us — a 2008-era disk seek). Query-time benchmarks report
///   time = measured CPU time + cold-cache page misses * latency,
/// reproducing the disk-bound regime of the paper's testbed without
/// sleeping. Set PCUBE_PAGE_LATENCY_US=0 for pure CPU time.
inline double PageLatencySeconds() {
  static double latency = [] {
    const char* env = std::getenv("PCUBE_PAGE_LATENCY_US");
    double us = env == nullptr ? 5000.0 : std::strtod(env, nullptr);
    return us * 1e-6;
  }();
  return latency;
}

/// One measured query execution (any method).
struct MeasuredRun {
  double seconds = 0;
  double sig_seconds = 0;
  IoStats io;
  uint64_t heap_peak = 0;
  uint64_t result_size = 0;
  uint64_t nodes_expanded = 0;
};

/// The Signature arm: Workbench::Run on the signature plan (Algorithm 1)
/// from a cold pool, the path the CLI and the server run. The forced hint
/// bypasses the L1 result cache in both directions.
inline MeasuredRun RunSignatureSkyline(Workbench* wb, const PredicateSet& preds) {
  QueryRequest request = QueryRequest::Skyline(preds);
  request.hint = PlanHint::kSignature;
  PCUBE_CHECK_OK(wb->ColdStart());
  Timer t;
  auto out = wb->Run(request);
  PCUBE_CHECK(out.ok()) << out.status().ToString();
  // A degraded response is a boolean-first run, not a P-Cube number.
  PCUBE_CHECK(!out->degraded) << out->degraded_reason;
  MeasuredRun run;
  run.seconds = t.ElapsedSeconds();
  run.sig_seconds = out->counters.sig_seconds;
  run.io = out->io;
  run.heap_peak = out->counters.heap_peak;
  run.result_size = out->tids.size();
  run.nodes_expanded = out->counters.nodes_expanded;
  return run;
}

inline MeasuredRun RunDominationSkyline(Workbench* wb,
                                        const PredicateSet& preds) {
  PCUBE_CHECK_OK(wb->ColdStart());
  Timer t;
  auto out = DominationFirstSkyline(*wb->tree(), *wb->table(), preds);
  PCUBE_CHECK(out.ok()) << out.status().ToString();
  MeasuredRun run;
  run.seconds = t.ElapsedSeconds();
  run.io = wb->IoSince();
  run.heap_peak = out->counters.heap_peak;
  run.result_size = out->skyline.size();
  run.nodes_expanded = out->counters.nodes_expanded;
  return run;
}

inline MeasuredRun RunBooleanSkyline(Workbench* wb, const PredicateSet& preds) {
  PCUBE_CHECK_OK(wb->ColdStart());
  Timer t;
  BooleanFirstExecutor boolean(&wb->indices(), wb->table());
  auto out = boolean.Skyline(preds);
  PCUBE_CHECK(out.ok()) << out.status().ToString();
  MeasuredRun run;
  run.seconds = t.ElapsedSeconds();
  run.io = wb->IoSince();
  run.heap_peak = out->counters.heap_peak;
  run.result_size = out->tids.size();
  return run;
}

/// Cost-model execution time: CPU + simulated disk.
inline double CostSeconds(const MeasuredRun& run) {
  return run.seconds + static_cast<double>(run.io.TotalReads()) *
                           PageLatencySeconds();
}

/// Attaches the standard per-run counters to a benchmark state.
inline void ReportRun(benchmark::State& state, const MeasuredRun& run) {
  state.counters["disk"] = static_cast<double>(run.io.TotalReads());
  state.counters["rtree_blocks"] =
      static_cast<double>(run.io.ReadCount(IoCategory::kRtreeBlock));
  state.counters["sig_pages"] =
      static_cast<double>(run.io.ReadCount(IoCategory::kSignature));
  state.counters["bool_verify"] =
      static_cast<double>(run.io.ReadCount(IoCategory::kBooleanVerify));
  state.counters["heap_peak"] = static_cast<double>(run.heap_peak);
  state.counters["results"] = static_cast<double>(run.result_size);
}

}  // namespace pcube::bench
