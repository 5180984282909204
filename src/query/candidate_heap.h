// Algorithm 1's candidate heap (paper §V), shared by the skyline and top-k
// engines. An expanded node's children are pruned before any entry is made
// for them: the engine drops the dominated slots, PushChildren probes the
// rest in slot order and builds an entry only for each survivor (or, under
// PrunedLists::kKeep, to file a pruned child). Survivors move onto a
// least-key-first heap driven by std::push_heap / std::pop_heap, and pops
// move them out again, so an entry is never copied between the heap and the
// result or pruned lists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/timer.h"
#include "common/trace.h"
#include "core/probe.h"
#include "query/query_types.h"
#include "rtree/node.h"

namespace pcube {

/// Files a pruned entry into `list` unless the run drops its lists.
inline void FilePruned(PrunedLists lists, std::vector<SearchEntry>* list,
                       SearchEntry&& e) {
  if (lists == PrunedLists::kKeep) list->push_back(std::move(e));
}

/// The entry for slot `slot` of `node`, whose path is `parent`'s plus that
/// slot; `key(rect, is_data)` gives its heap key.
template <typename KeyFn>
SearchEntry ChildEntry(const NodeView& node, uint32_t slot, const Path& parent,
                       const KeyFn& key) {
  SearchEntry child;
  child.is_data = node.is_leaf();
  child.id = node.GetId(slot);
  child.rect = node.GetRect(slot);
  child.path = parent;
  child.path.push_back(static_cast<uint16_t>(slot + 1));
  child.key = key(child.rect, child.is_data);
  return child;
}

class CandidateHeap {
 public:
  void Clear() { heap_.clear(); }
  bool empty() const { return heap_.empty(); }

  /// Boolean-probes the seed entries in order (the root, with its empty
  /// path, passes untested), timed as one `signature_probe` record and one
  /// `sig_seconds` addition. Failures are counted as pruned_boolean and
  /// filed into `b_list`; the rest are pushed, in order, and heap_peak is
  /// updated.
  Status PushSeeds(std::vector<SearchEntry> seeds, BooleanProbe* probe,
                   Trace* trace, PrunedLists lists,
                   std::vector<SearchEntry>* b_list, EngineCounters* counters);

  /// The boolean half of prune() for the children of `node` (reached by
  /// `parent`) in `slots`, ascending: probes them in that order as one
  /// timed record, as PushSeeds does, then builds an entry for each
  /// survivor and pushes it, in the same order. A failed child is counted
  /// as pruned_boolean and built only to be filed into `b_list` under kKeep.
  template <typename KeyFn>
  Status PushChildren(const NodeView& node, const Path& parent,
                      const std::vector<uint32_t>& slots, const KeyFn& key,
                      BooleanProbe* probe, Trace* trace, PrunedLists lists,
                      std::vector<SearchEntry>* b_list,
                      EngineCounters* counters);

  /// Moves out the entry with the least key. The heap must not be empty.
  SearchEntry Pop();

 private:
  void Push(SearchEntry&& e);
  /// Adds one probe batch's time to `counters` and `trace`.
  static void RecordProbe(double seconds, Trace* trace,
                          EngineCounters* counters);

  std::vector<SearchEntry> heap_;
  std::vector<uint8_t> passed_;  ///< the probe's verdict per seed or slot
};

template <typename KeyFn>
Status CandidateHeap::PushChildren(const NodeView& node, const Path& parent,
                                   const std::vector<uint32_t>& slots,
                                   const KeyFn& key, BooleanProbe* probe,
                                   Trace* trace, PrunedLists lists,
                                   std::vector<SearchEntry>* b_list,
                                   EngineCounters* counters) {
  if (!slots.empty()) {
    passed_.resize(slots.size());
    Path path = parent;
    path.push_back(0);
    uint16_t& last = path[path.size() - 1];
    Timer t;
    for (size_t i = 0; i < slots.size(); ++i) {
      last = static_cast<uint16_t>(slots[i] + 1);
      Result<bool> pass = node.is_leaf()
                              ? probe->TestData(path, node.GetId(slots[i]))
                              : probe->Test(path);
      if (!pass.ok()) return pass.status();
      passed_[i] = *pass;
    }
    RecordProbe(t.ElapsedSeconds(), trace, counters);
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    if (passed_[i]) {
      Push(ChildEntry(node, slots[i], parent, key));
      continue;
    }
    ++counters->pruned_boolean;
    if (lists == PrunedLists::kKeep) {
      b_list->push_back(ChildEntry(node, slots[i], parent, key));
    }
  }
  counters->heap_peak = std::max<uint64_t>(counters->heap_peak, heap_.size());
  return Status::OK();
}

}  // namespace pcube
