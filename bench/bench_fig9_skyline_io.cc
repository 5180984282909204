// Figure 9: number of disk accesses w.r.t. T for skyline queries,
// decomposed as in the paper:
//   Domination: DBlock (R-tree block reads) + DBool (random tuple accesses
//               for boolean verification);
//   Signature:  SBlock (R-tree block reads) + SSig (partial-signature page
//               loads).
//
// Paper's claims to reproduce: SSig is a tiny fraction (<= 1%) of SBlock,
// and the signatures prune more than 1/3 of the R-tree blocks Domination
// reads, while eliminating random verification entirely.
#include "bench_common.h"

namespace pcube::bench {
namespace {

void BM_SkylineIo(benchmark::State& state) {
  uint64_t n = static_cast<uint64_t>(state.range(0));
  Workbench* wb = CachedWorkbench("fig9/" + std::to_string(n), [n] {
    return GenerateSynthetic(PaperConfig(n));
  });
  PredicateSet preds = OnePredicate(100);
  MeasuredRun dom, sig;
  for (auto _ : state) {
    dom = RunDominationSkyline(wb, preds);
    sig = RunSignatureSkyline(wb, preds);
  }
  state.counters["DBlock"] =
      static_cast<double>(dom.io.ReadCount(IoCategory::kRtreeBlock));
  state.counters["DBool"] =
      static_cast<double>(dom.io.ReadCount(IoCategory::kBooleanVerify));
  state.counters["SBlock"] =
      static_cast<double>(sig.io.ReadCount(IoCategory::kRtreeBlock));
  state.counters["SSig"] =
      static_cast<double>(sig.io.ReadCount(IoCategory::kSignature));
}

void RegisterAll() {
  for (uint64_t n : TupleSweep()) {
    benchmark::RegisterBenchmark("fig9/SkylineDiskAccess", BM_SkylineIo)
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
