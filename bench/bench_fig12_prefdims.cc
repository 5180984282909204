// Figure 12: skyline execution time w.r.t. the number of preference
// dimensions Dp in {2, 3, 4}.
//
// Paper's claims to reproduce: skyline computation gets harder as Dp grows,
// so Domination's time climbs steeply; Boolean is largely insensitive
// (selection cost dominates); Signature stays consistently best.
#include "bench_common.h"

namespace pcube::bench {
namespace {

Workbench* WorkbenchForDp(int dp) {
  uint64_t n = TupleSweep()[0] * 2;
  return CachedWorkbench("fig12/" + std::to_string(dp), [n, dp] {
    SyntheticConfig config = PaperConfig(n);
    config.num_pref = dp;
    return GenerateSynthetic(config);
  });
}

void BM_SkylineByDp(benchmark::State& state, const char* method) {
  int dp = static_cast<int>(state.range(0));
  Workbench* wb = WorkbenchForDp(dp);
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
  for (int dp : {2, 3, 4}) {
    for (const char* method : {"boolean", "domination", "signature"}) {
      benchmark::RegisterBenchmark(
          (std::string("fig12/SkylineByDp/") + method).c_str(),
          BM_SkylineByDp, method)
          ->Arg(dp)
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
