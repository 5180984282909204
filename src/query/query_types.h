// Shared types of the Algorithm 1 query framework (paper §V): candidate-heap
// entries, the three bookkeeping lists (result, b_list, d_list) and the
// per-query counters behind Figures 8-16.
#pragma once

#include <cstdint>
#include <vector>

#include "common/io_stats.h"
#include "rtree/geometry.h"
#include "rtree/path.h"

namespace pcube {

/// Configuration for one skyline query.
struct SkylineQueryOptions {
  /// Preference dimensions the skyline is computed on (indices into the
  /// tree's dimensions); empty = all.
  std::vector<int> pref_dims;
  /// Dynamic skyline (paper §VII, after [9]): when non-empty, dominance is
  /// evaluated on the transformed coordinates |x_d - origin_d| — "closer to
  /// my reference point in every respect". Must have one entry per tree
  /// dimension.
  std::vector<float> origin;
  /// k-skyband: report the objects dominated by fewer than k others
  /// (k = 1 is the ordinary skyline).
  size_t skyband_k = 1;
};

/// One candidate-heap entry: an R-tree node or a data object. Trivially
/// copyable (the path is inline), so the engines move entries between the
/// heap and the lists without touching the allocator.
struct SearchEntry {
  /// Heap priority: skyline queries use the lower-corner coordinate sum
  /// d(n) (paper §V.A); top-k queries use f's lower bound (f(point) for
  /// data objects).
  double key = 0;
  /// Child PageId for nodes, TupleId for data objects.
  uint64_t id = 0;
  /// MBR for nodes; min == max == point for data objects.
  RectF rect;
  /// Node path / full tuple path (1-based slots); empty for the root.
  Path path;
  bool is_data = false;
};

/// Why an entry left the search (which Lemma 2 list it belongs to).
enum class PruneReason { kNotPruned, kDominated, kBoolean };

/// Whether an engine run files pruned entries into b_list / d_list. Only a
/// run whose output seeds a later Lemma 2 query needs them; dropping them
/// changes no answer and no counter.
enum class PrunedLists { kKeep, kDrop };

/// Counters reported by one query execution.
struct EngineCounters {
  uint64_t heap_peak = 0;         ///< Fig. 10: peak candidate-heap size
  uint64_t nodes_expanded = 0;    ///< R-tree node pages read
  uint64_t pruned_boolean = 0;    ///< entries sent to b_list
  uint64_t pruned_preference = 0; ///< entries sent to d_list
  uint64_t verified = 0;          ///< random-access boolean verifications
  uint64_t verify_failed = 0;
  double sig_seconds = 0;         ///< time inside boolean probes (Fig. 15)
};

/// Result of one skyline query (Algorithm 1 run to exhaustion).
struct SkylineOutput {
  std::vector<SearchEntry> skyline;
  /// Entries pruned by boolean predicates / by domination (paper's global
  /// b_list and d_list, kept to seed drill-down and roll-up queries). Empty
  /// when the engine ran with PrunedLists::kDrop.
  std::vector<SearchEntry> b_list;
  std::vector<SearchEntry> d_list;
  EngineCounters counters;
};

/// Result of one top-k query.
struct TopKOutput {
  /// At most k data entries in ascending score (entry.key = exact score).
  std::vector<SearchEntry> results;
  /// Empty when the engine ran with PrunedLists::kDrop. d_list stays empty:
  /// the search stops at the k-th result, before score pruning can apply.
  std::vector<SearchEntry> b_list;
  std::vector<SearchEntry> d_list;
  /// Heap contents left unexamined when the k-th result was found; needed to
  /// seed incremental queries.
  std::vector<SearchEntry> remaining;
  EngineCounters counters;
};

}  // namespace pcube
