#include "query/candidate_heap.h"

namespace pcube {

namespace {
/// Makes std::push_heap / std::pop_heap keep the least key on top.
struct KeyGreater {
  bool operator()(const SearchEntry& a, const SearchEntry& b) const {
    return a.key > b.key;
  }
};
}  // namespace

void CandidateHeap::RecordProbe(double seconds, Trace* trace,
                                EngineCounters* counters) {
  counters->sig_seconds += seconds;
  if (trace != nullptr) trace->Record("signature_probe", seconds);
}

Status CandidateHeap::PushSeeds(std::vector<SearchEntry> seeds,
                                BooleanProbe* probe, Trace* trace,
                                PrunedLists lists,
                                std::vector<SearchEntry>* b_list,
                                EngineCounters* counters) {
  passed_.assign(seeds.size(), 1);
  bool probed = false;
  Timer t;
  for (size_t i = 0; i < seeds.size(); ++i) {
    const SearchEntry& e = seeds[i];
    if (e.path.empty()) continue;  // the root: nothing to test
    probed = true;
    auto pass = e.is_data ? probe->TestData(e.path, e.id) : probe->Test(e.path);
    if (!pass.ok()) return pass.status();
    passed_[i] = *pass;
  }
  if (probed) RecordProbe(t.ElapsedSeconds(), trace, counters);
  for (size_t i = 0; i < seeds.size(); ++i) {
    if (!passed_[i]) {
      ++counters->pruned_boolean;
      FilePruned(lists, b_list, std::move(seeds[i]));
      continue;
    }
    Push(std::move(seeds[i]));
  }
  counters->heap_peak = std::max<uint64_t>(counters->heap_peak, heap_.size());
  return Status::OK();
}

void CandidateHeap::Push(SearchEntry&& e) {
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), KeyGreater());
}

SearchEntry CandidateHeap::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), KeyGreater());
  SearchEntry e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

}  // namespace pcube
