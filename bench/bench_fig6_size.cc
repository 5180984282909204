// Figure 6: materialized size w.r.t. T for the R-tree, the boolean B+-tree
// indices, and the P-Cube.
//
// Paper's claim to reproduce: P-Cube is ~2x smaller than the B+-trees and
// ~8x smaller than the R-tree. (Our B+-tree entries are 16 B vs ~8 B in
// 2008-era layouts, so its curve sits higher; the P-Cube-much-smaller shape
// is what matters.)
#include "bench_common.h"

namespace pcube::bench {
namespace {

void BM_MaterializedSize(benchmark::State& state) {
  uint64_t n = static_cast<uint64_t>(state.range(0));
  std::string key = "fig6/" + std::to_string(n);
  Workbench* wb = CachedWorkbench(key, [n] {
    return GenerateSynthetic(PaperConfig(n));
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(wb);
  }
  uint64_t btree_pages = 0;
  for (const auto& index : wb->indices()) btree_pages += index.num_pages();
  state.counters["rtree_MB"] =
      static_cast<double>(wb->tree()->num_pages()) * kPageSize / 1e6;
  state.counters["btree_MB"] = static_cast<double>(btree_pages) * kPageSize / 1e6;
  state.counters["pcube_MB"] =
      static_cast<double>(wb->cube()->MaterializedPages()) * kPageSize / 1e6;
}

void RegisterAll() {
  for (uint64_t n : TupleSweep()) {
    benchmark::RegisterBenchmark("fig6/MaterializedSize", BM_MaterializedSize)
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
