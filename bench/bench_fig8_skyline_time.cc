// Figure 8: skyline query execution time w.r.t. T for Boolean-first,
// Domination-first, and Signature, single boolean predicate.
//
// Paper's claim to reproduce: Signature is at least one order of magnitude
// faster; it combines both pruning opportunities, while Boolean pays for
// selection-sized fetches and Domination for unpruned space traversal plus
// random boolean verification.
#include "bench_common.h"

namespace pcube::bench {
namespace {

Workbench* WorkbenchForT(uint64_t n) {
  return CachedWorkbench("fig8/" + std::to_string(n), [n] {
    return GenerateSynthetic(PaperConfig(n));
  });
}

void BM_Skyline(benchmark::State& state, const char* method) {
  uint64_t n = static_cast<uint64_t>(state.range(0));
  Workbench* wb = WorkbenchForT(n);
  PredicateSet preds = OnePredicate(100);
  MeasuredRun last;
  for (auto _ : state) {
    if (std::string(method) == "signature") {
      last = RunSignatureSkyline(wb, preds);
    } else if (std::string(method) == "domination") {
      last = RunDominationSkyline(wb, preds);
    } else {
      last = RunBooleanSkyline(wb, preds);
    }
    state.SetIterationTime(CostSeconds(last));
  }
  ReportRun(state, last);
}

void RegisterAll() {
  for (uint64_t n : TupleSweep()) {
    for (const char* method : {"boolean", "domination", "signature"}) {
      benchmark::RegisterBenchmark(
          (std::string("fig8/Skyline/") + method).c_str(), BM_Skyline, method)
          ->Arg(static_cast<int64_t>(n))
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
