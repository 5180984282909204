// Figure 15: signature loading time vs. query processing time for 1-4
// boolean predicates on CoverType.
//
// Paper's claims to reproduce: loading time grows slightly with the number
// of predicates (k one-dimensional signatures are loaded) but stays a small
// fraction (< 10%) of query time — the evidence that materialising only
// atomic cuboids is good enough in practice.
#include "bench_common.h"

namespace pcube::bench {
namespace {

Workbench* CoverTypeWorkbench() {
  return CachedWorkbench("fig15", [] {
    CoverTypeConfig config;
    config.num_tuples = 58101 * Scale();
    return GenerateCoverTypeSurrogate(config);
  });
}

void BM_SignatureLoadVsQuery(benchmark::State& state) {
  int npreds = static_cast<int>(state.range(0));
  Workbench* wb = CoverTypeWorkbench();
  PredicateSet preds = CoverTypePredicates(npreds);
  MeasuredRun last;
  for (auto _ : state) {
    last = RunSignatureSkyline(wb, preds);
    state.SetIterationTime(CostSeconds(last));
  }
  // "Load" = time spent in the boolean probes + simulated disk for the
  // signature pages and their directory lookups; "Query" is the rest.
  double load_io = static_cast<double>(
      last.io.ReadCount(IoCategory::kSignature) +
      last.io.ReadCount(IoCategory::kBtree));
  double load_s = last.sig_seconds + load_io * PageLatencySeconds();
  double total_s = CostSeconds(last);
  state.counters["load_ms"] = load_s * 1e3;
  state.counters["query_ms"] = (total_s - load_s) * 1e3;
  state.counters["load_fraction"] = total_s > 0 ? load_s / total_s : 0;
  state.counters["sig_pages"] =
      static_cast<double>(last.io.ReadCount(IoCategory::kSignature));
}

void RegisterAll() {
  for (int npreds : {1, 2, 3, 4}) {
    benchmark::RegisterBenchmark("fig15/SignatureLoadVsQuery",
                                 BM_SignatureLoadVsQuery)
        ->Arg(npreds)
        ->Iterations(3)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
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
