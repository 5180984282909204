// Algorithm 1's candidate heap (paper §V), shared by the skyline and top-k
// engines. Entries an expansion produces wait in a batch for their boolean
// probe; survivors move onto a least-key-first heap driven by
// std::push_heap / std::pop_heap, and pops move them out again, so an entry
// is never copied between the heap and the result or pruned lists.
#pragma once

#include <cstdint>
#include <vector>

#include "common/trace.h"
#include "core/probe.h"
#include "query/query_types.h"

namespace pcube {

/// Files a pruned entry into `list` unless the run drops its lists.
inline void FilePruned(PrunedLists lists, std::vector<SearchEntry>* list,
                       SearchEntry&& e) {
  if (lists == PrunedLists::kKeep) list->push_back(std::move(e));
}

class CandidateHeap {
 public:
  void Clear() {
    heap_.clear();
    batch_.clear();
  }
  bool empty() const { return heap_.empty(); }

  /// Queues an entry for the next ProbeQueued.
  void Queue(SearchEntry&& e) { batch_.push_back(std::move(e)); }

  /// Boolean-probes every queued entry (the root, with its empty path,
  /// passes untested), timed as one `signature_probe` record and one
  /// `sig_seconds` addition. Failures are counted as pruned_boolean and
  /// filed into `b_list`; the rest are pushed, in queue order, and
  /// heap_peak is updated.
  Status ProbeQueued(BooleanProbe* probe, Trace* trace, PrunedLists lists,
                     std::vector<SearchEntry>* b_list,
                     EngineCounters* counters);

  /// Moves out the entry with the least key. The heap must not be empty.
  SearchEntry Pop();

 private:
  std::vector<SearchEntry> heap_;
  std::vector<SearchEntry> batch_;
  std::vector<uint8_t> passed_;  ///< ProbeQueued's verdict per batch entry
};

}  // namespace pcube
