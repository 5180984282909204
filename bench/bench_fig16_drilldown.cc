// Figure 16: drill-down query vs. new query on CoverType. For each query
// with k >= 2 predicates, the drill-down variant first answers the (k-1)-
// predicate query, then extends it with the k-th predicate by re-seeding the
// candidate heap from the cached result/d_list (Lemma 2), instead of
// searching from the R-tree root.
//
// Paper's claim to reproduce: more than 10x speed-up from caching the
// previous intermediate results.
#include "bench_common.h"

#include "query/incremental.h"

namespace pcube::bench {
namespace {

Workbench* CoverTypeWorkbench() {
  return CachedWorkbench("fig16", [] {
    CoverTypeConfig config;
    config.num_tuples = 58101 * Scale();
    return GenerateCoverTypeSurrogate(config);
  });
}

Result<SkylineOutput> RunWithSeed(Workbench* wb, const PredicateSet& preds,
                                  const std::vector<SearchEntry>* seed) {
  auto probe = wb->cube()->MakeProbe(preds);
  if (!probe.ok()) return probe.status();
  SkylineEngine engine(wb->tree(), probe->get(), nullptr);
  return seed == nullptr ? engine.Run() : engine.RunFrom(*seed);
}

void BM_NewQuery(benchmark::State& state) {
  int npreds = static_cast<int>(state.range(0));
  Workbench* wb = CoverTypeWorkbench();
  PredicateSet preds = CoverTypePredicates(npreds);
  MeasuredRun last;
  for (auto _ : state) {
    last = RunSignatureSkyline(wb, preds);
    state.SetIterationTime(CostSeconds(last));
  }
  ReportRun(state, last);
}

void BM_DrillDown(benchmark::State& state) {
  int npreds = static_cast<int>(state.range(0));
  Workbench* wb = CoverTypeWorkbench();
  PredicateSet full = CoverTypePredicates(npreds);
  PredicateSet base;
  {
    auto preds = full.predicates();
    for (size_t i = 0; i + 1 < preds.size(); ++i) base.Add(preds[i]);
  }
  for (auto _ : state) {
    // Step 1 (not timed as drill-down): the (k-1)-predicate query.
    PCUBE_CHECK_OK(wb->ColdStart());
    auto first = RunWithSeed(wb, base, nullptr);
    PCUBE_CHECK(first.ok());
    auto seed = DrillDownSeed(*first);
    // Step 2: the timed drill-down with the k-th predicate.
    PCUBE_CHECK_OK(wb->ColdStart());
    Timer t;
    auto second = RunWithSeed(wb, full, &seed);
    PCUBE_CHECK(second.ok());
    MeasuredRun run;
    run.seconds = t.ElapsedSeconds();
    run.io = wb->IoSince();
    state.SetIterationTime(CostSeconds(run));
    state.counters["nodes_expanded"] =
        static_cast<double>(second->counters.nodes_expanded);
    state.counters["disk"] = static_cast<double>(run.io.TotalReads());
    state.counters["results"] = static_cast<double>(second->skyline.size());
  }
}

void BM_RollUp(benchmark::State& state) {
  // The inverse direction (paper: "The performance for roll-up query is
  // similar"): answer the k-predicate query, then relax the last predicate
  // and re-seed from result ∪ b_list.
  int npreds = static_cast<int>(state.range(0));
  Workbench* wb = CoverTypeWorkbench();
  PredicateSet full = CoverTypePredicates(npreds);
  PredicateSet relaxed;
  {
    auto preds = full.predicates();
    for (size_t i = 0; i + 1 < preds.size(); ++i) relaxed.Add(preds[i]);
  }
  for (auto _ : state) {
    PCUBE_CHECK_OK(wb->ColdStart());
    auto first = RunWithSeed(wb, full, nullptr);
    PCUBE_CHECK(first.ok());
    auto seed = RollUpSeed(*first);
    PCUBE_CHECK_OK(wb->ColdStart());
    Timer t;
    auto second = RunWithSeed(wb, relaxed, &seed);
    PCUBE_CHECK(second.ok());
    MeasuredRun run;
    run.seconds = t.ElapsedSeconds();
    run.io = wb->IoSince();
    state.SetIterationTime(CostSeconds(run));
    state.counters["nodes_expanded"] =
        static_cast<double>(second->counters.nodes_expanded);
    state.counters["disk"] = static_cast<double>(run.io.TotalReads());
    state.counters["results"] = static_cast<double>(second->skyline.size());
  }
}

void RegisterAll() {
  for (int npreds : {2, 3, 4}) {
    benchmark::RegisterBenchmark("fig16/NewQuery", BM_NewQuery)
        ->Arg(npreds)
        ->Iterations(3)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("fig16/DrillDown", BM_DrillDown)
        ->Arg(npreds)
        ->Iterations(3)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("fig16/RollUp", BM_RollUp)
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
