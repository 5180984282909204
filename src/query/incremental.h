// Drill-down and roll-up execution (paper §V.C, Lemma 2). Incremental
// queries reuse the bookkeeping lists of the previous run instead of
// restarting from the R-tree root:
//
//   drill-down (predicates strengthened): entries pruned by the old boolean
//     predicate stay pruned, so  c_heap = result ∪ d_list;
//   roll-up (predicates relaxed): results keep qualifying and their
//     domination pruning stays valid, so  c_heap = result ∪ b_list.
//
// Top-k runs have no d_list (the search stops at the k-th result, before
// score pruning applies); they carry the unexamined heap frontier
// (`remaining`) instead, which must re-enter the heap in both directions.
//
// The seeds below feed SkylineEngine::RunFrom / TopKEngine::RunFrom, which
// re-apply the new query's prune() to every entry ("the size of c_heap can
// be further reduced by enforcing boolean checking and domination checking
// beforehand").
#pragma once

#include "query/query_types.h"

namespace pcube {

inline std::vector<SearchEntry> DrillDownSeed(const SkylineOutput& prev) {
  std::vector<SearchEntry> seed = prev.skyline;
  seed.insert(seed.end(), prev.d_list.begin(), prev.d_list.end());
  return seed;
}

inline std::vector<SearchEntry> RollUpSeed(const SkylineOutput& prev) {
  std::vector<SearchEntry> seed = prev.skyline;
  seed.insert(seed.end(), prev.b_list.begin(), prev.b_list.end());
  return seed;
}

inline std::vector<SearchEntry> DrillDownSeed(const TopKOutput& prev) {
  std::vector<SearchEntry> seed = prev.results;
  seed.insert(seed.end(), prev.remaining.begin(), prev.remaining.end());
  return seed;
}

inline std::vector<SearchEntry> RollUpSeed(const TopKOutput& prev) {
  std::vector<SearchEntry> seed = prev.results;
  seed.insert(seed.end(), prev.b_list.begin(), prev.b_list.end());
  seed.insert(seed.end(), prev.remaining.begin(), prev.remaining.end());
  return seed;
}

// ---------------------------------------------------------------------------
// Chained sessions. An incremental run only re-examines its seed, so its
// output lists cover a subset of the space; entries pruned in *earlier*
// queries of the chain must be carried forward for the lists to stay usable
// as future seeds:
//   after a drill-down, the previous b_list entries still fail the (now
//     stronger) predicate — append them to the run's b_list;
//   after a roll-up, the previous d_list entries stay dominated (their
//     dominators qualify under the relaxed predicate, and domination is
//     transitive) — append them to the run's d_list. A top-k roll-up has
//     no d_list, so its run needs no merge.
// Use these whenever more than one incremental step follows a fresh query.

inline SkylineOutput MergeAfterDrillDown(SkylineOutput run,
                                         const SkylineOutput& prev) {
  run.b_list.insert(run.b_list.end(), prev.b_list.begin(), prev.b_list.end());
  return run;
}

inline SkylineOutput MergeAfterRollUp(SkylineOutput run,
                                      const SkylineOutput& prev) {
  run.d_list.insert(run.d_list.end(), prev.d_list.begin(), prev.d_list.end());
  return run;
}

inline TopKOutput MergeAfterDrillDown(TopKOutput run, const TopKOutput& prev) {
  run.b_list.insert(run.b_list.end(), prev.b_list.begin(), prev.b_list.end());
  return run;
}

}  // namespace pcube
