// Figure 13: top-k execution time w.r.t. k in {10, 20, 50, 100} for
// Boolean-first, Ranking (domination-first), IndexMerge [14], and Signature,
// with a random linear ranking function f = aX + bY + cZ.
//
// Paper's claims to reproduce: Boolean is insensitive to k; Ranking does
// best at small k; Signature runs orders of magnitude faster and also beats
// IndexMerge, because IndexMerge joins the search space online while the
// signature materialises the joint space offline.
#include "bench_common.h"

namespace pcube::bench {
namespace {

Workbench* TopKWorkbench() {
  uint64_t n = TupleSweep()[0] * 2;  // stands in for the paper's 1M dataset
  return CachedWorkbench("fig13", [n] {
    return GenerateSynthetic(PaperConfig(n));  // Dp = 3: f over X, Y, Z
  });
}

LinearRanking RandomLinear() {
  Random rng(7);
  return LinearRanking({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
}

void BM_TopK(benchmark::State& state, const char* method) {
  size_t k = static_cast<size_t>(state.range(0));
  Workbench* wb = TopKWorkbench();
  PredicateSet preds = OnePredicate(100);
  auto ranking = std::make_shared<LinearRanking>(RandomLinear());
  const LinearRanking& f = *ranking;
  // The Signature arm runs Workbench::Run on the signature plan, the path
  // the server runs; the forced hint bypasses the L1 result cache.
  QueryRequest signature = QueryRequest::TopK(preds, ranking, k);
  signature.hint = PlanHint::kSignature;
  MeasuredRun last;
  for (auto _ : state) {
    PCUBE_CHECK_OK(wb->ColdStart());
    Timer t;
    std::string m(method);
    if (m == "signature") {
      auto out = wb->Run(signature);
      PCUBE_CHECK(out.ok()) << out.status().ToString();
      PCUBE_CHECK(!out->degraded) << out->degraded_reason;
      last.heap_peak = out->counters.heap_peak;
      last.result_size = out->tids.size();
    } else if (m == "ranking") {
      auto out = RankingFirstTopK(*wb->tree(), *wb->table(), preds, f, k);
      PCUBE_CHECK(out.ok());
      last.heap_peak = out->counters.heap_peak;
      last.result_size = out->results.size();
    } else if (m == "indexmerge") {
      auto out = IndexMergeTopK(*wb->tree(), wb->indices(), preds, f, k);
      PCUBE_CHECK(out.ok());
      last.heap_peak = out->counters.heap_peak;
      last.result_size = out->results.size();
    } else {
      BooleanFirstExecutor boolean(&wb->indices(), wb->table());
      auto out = boolean.TopK(preds, f, k);
      PCUBE_CHECK(out.ok());
      last.heap_peak = out->counters.heap_peak;
      last.result_size = out->tids.size();
    }
    last.seconds = t.ElapsedSeconds();
    last.io = wb->IoSince();
    state.SetIterationTime(CostSeconds(last));
  }
  ReportRun(state, last);
}

void RegisterAll() {
  for (int k : {10, 20, 50, 100}) {
    for (const char* method :
         {"boolean", "ranking", "indexmerge", "signature"}) {
      benchmark::RegisterBenchmark(
          (std::string("fig13/TopK/") + method).c_str(), BM_TopK, method)
          ->Arg(k)
          ->Iterations(3)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace pcube::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  pcube::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
