#include "query/candidate_heap.h"

#include <algorithm>

#include "common/timer.h"

namespace pcube {

namespace {
/// Makes std::push_heap / std::pop_heap keep the least key on top.
struct KeyGreater {
  bool operator()(const SearchEntry& a, const SearchEntry& b) const {
    return a.key > b.key;
  }
};
}  // namespace

Status CandidateHeap::ProbeQueued(BooleanProbe* probe, Trace* trace,
                                  PrunedLists lists,
                                  std::vector<SearchEntry>* b_list,
                                  EngineCounters* counters) {
  passed_.assign(batch_.size(), 1);
  bool probed = false;
  Timer t;
  for (size_t i = 0; i < batch_.size(); ++i) {
    const SearchEntry& e = batch_[i];
    if (e.path.empty()) continue;  // the root: nothing to test
    probed = true;
    auto pass = e.is_data ? probe->TestData(e.path, e.id) : probe->Test(e.path);
    if (!pass.ok()) return pass.status();
    passed_[i] = *pass;
  }
  if (probed) {
    const double dt = t.ElapsedSeconds();
    counters->sig_seconds += dt;
    if (trace != nullptr) trace->Record("signature_probe", dt);
  }
  for (size_t i = 0; i < batch_.size(); ++i) {
    if (!passed_[i]) {
      ++counters->pruned_boolean;
      FilePruned(lists, b_list, std::move(batch_[i]));
      continue;
    }
    heap_.push_back(std::move(batch_[i]));
    std::push_heap(heap_.begin(), heap_.end(), KeyGreater());
  }
  batch_.clear();
  counters->heap_peak = std::max<uint64_t>(counters->heap_peak, heap_.size());
  return Status::OK();
}

SearchEntry CandidateHeap::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), KeyGreater());
  SearchEntry e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

}  // namespace pcube
