// Figure 14: skyline execution time w.r.t. the number of boolean predicates
// (1-4) on the Forest CoverType dataset (here: the schema-matched surrogate,
// see DESIGN.md §5).
//
// With k > 1 predicates only atomic cuboids are materialised, so the
// signature method loads k one-dimensional signatures and ANDs them lazily.
//
// Paper's claims to reproduce: Signature and Boolean are insensitive to the
// number of predicates (Signature consistently better); Domination grows
// significantly because more candidates fail verification.
#include "bench_common.h"

namespace pcube::bench {
namespace {

Workbench* CoverTypeWorkbench() {
  return CachedWorkbench("fig14", [] {
    CoverTypeConfig config;
    config.num_tuples = 58101 * Scale();  // 1/10 of the real row count per scale unit
    return GenerateCoverTypeSurrogate(config);
  });
}

void BM_CoverTypeSkyline(benchmark::State& state, const char* method) {
  int npreds = static_cast<int>(state.range(0));
  Workbench* wb = CoverTypeWorkbench();
  PredicateSet preds = CoverTypePredicates(npreds);
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
  for (int npreds : {1, 2, 3, 4}) {
    for (const char* method : {"domination", "boolean", "signature"}) {
      benchmark::RegisterBenchmark(
          (std::string("fig14/CoverTypeSkyline/") + method).c_str(),
          BM_CoverTypeSkyline, method)
          ->Arg(npreds)
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
