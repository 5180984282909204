// Figure 11: skyline execution time w.r.t. the boolean-dimension
// cardinality C in {10, 100, 1000}, T fixed.
//
// Paper's claims to reproduce: Boolean improves as C grows (more selective
// predicates), Domination deteriorates (verification discards more
// candidates), Signature stays robust and best throughout.
#include "bench_common.h"

namespace pcube::bench {
namespace {

Workbench* WorkbenchForC(uint32_t c) {
  uint64_t n = TupleSweep()[0] * 2;  // stands in for the paper's T = 1M
  return CachedWorkbench("fig11/" + std::to_string(c), [n, c] {
    SyntheticConfig config = PaperConfig(n);
    config.bool_cardinality = c;
    return GenerateSynthetic(config);
  });
}

void BM_SkylineByCardinality(benchmark::State& state, const char* method) {
  uint32_t c = static_cast<uint32_t>(state.range(0));
  Workbench* wb = WorkbenchForC(c);
  PredicateSet preds = OnePredicate(c);
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
  for (uint32_t c : {10u, 100u, 1000u}) {
    for (const char* method : {"boolean", "domination", "signature"}) {
      benchmark::RegisterBenchmark(
          (std::string("fig11/SkylineByC/") + method).c_str(),
          BM_SkylineByCardinality, method)
          ->Arg(c)
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
