// Top-k query processing with Algorithm 1 (paper §V.B): identical framework
// to the skyline engine, but the candidate heap is ordered best-first by the
// ranking function's lower bound f(n) = min_{x in n} f(x). Because entries
// pop in ascending bound order and data objects carry exact scores, the
// first k accepted data objects are exactly the top-k, and the search stops
// there — before the paper's score pruning (drop an entry once k results at
// least as good exist) could ever apply, so only boolean pruning runs.
#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "common/trace.h"
#include "core/probe.h"
#include "query/candidate_heap.h"
#include "query/query_types.h"
#include "query/ranking.h"
#include "query/verifier.h"
#include "rtree/rstar_tree.h"

namespace pcube {

/// Executes top-k queries against one R-tree + boolean probe.
class TopKEngine {
 public:
  /// `f` and the probe/verifier must outlive the engine. `verifier` works as
  /// in SkylineEngine (minimal probing / lossy-probe safety).
  TopKEngine(const RStarTree* tree, BooleanProbe* probe,
             const TupleVerifier* verifier, const RankingFunction* f,
             size_t k);

  /// Runs from the root.
  Result<TopKOutput> Run();

  /// Runs with a reconstructed candidate heap (Lemma 2 seeds).
  Result<TopKOutput> RunFrom(const std::vector<SearchEntry>& seed);

  /// Optional per-stage timing sink (signature_probe, heap_expand,
  /// boolean_verify). Must outlive the run; null disables tracing.
  void set_trace(Trace* trace) { trace_ = trace; }

  /// Optional wall-clock deadline, checked once per heap pop: when it
  /// passes, the run stops with Status::Timeout (results found so far are
  /// the best-scored prefix, but a partial top-k is not the top-k).
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }

  /// kKeep (the default) fills b_list for a later Lemma 2 run.
  void set_pruned_lists(PrunedLists lists) { lists_ = lists; }

 private:
  const RStarTree* tree_;
  BooleanProbe* probe_;
  const TupleVerifier* verifier_;
  Trace* trace_ = nullptr;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  const RankingFunction* f_;
  size_t k_;
  PrunedLists lists_ = PrunedLists::kKeep;
  TopKOutput out_;
  CandidateHeap heap_;
  /// The valid slots of the node being expanded.
  std::vector<uint32_t> slots_;
};

}  // namespace pcube
