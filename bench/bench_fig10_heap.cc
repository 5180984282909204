// Figure 10: peak candidate-heap size (memory working set) w.r.t. T for
// skyline queries.
//
// Paper's claim to reproduce: with signatures, the number of entries kept in
// memory is an order of magnitude smaller than Domination (whose lazy
// verification keeps unverified candidates around) and Boolean (which holds
// the whole selected subset).
#include "bench_common.h"

namespace pcube::bench {
namespace {

void BM_HeapPeak(benchmark::State& state) {
  uint64_t n = static_cast<uint64_t>(state.range(0));
  Workbench* wb = CachedWorkbench("fig10/" + std::to_string(n), [n] {
    return GenerateSynthetic(PaperConfig(n));
  });
  PredicateSet preds = OnePredicate(100);
  MeasuredRun boolean, dom, sig;
  for (auto _ : state) {
    boolean = RunBooleanSkyline(wb, preds);
    dom = RunDominationSkyline(wb, preds);
    sig = RunSignatureSkyline(wb, preds);
  }
  state.counters["Boolean"] = static_cast<double>(boolean.heap_peak);
  state.counters["Domination"] = static_cast<double>(dom.heap_peak);
  state.counters["Signature"] = static_cast<double>(sig.heap_peak);
}

void RegisterAll() {
  for (uint64_t n : TupleSweep()) {
    benchmark::RegisterBenchmark("fig10/PeakCandidateHeap", BM_HeapPeak)
        ->Arg(static_cast<int64_t>(n))
        ->Iterations(1);
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
