#include "query/topk_engine.h"

#include <limits>

#include "rtree/node.h"

namespace pcube {

TopKEngine::TopKEngine(const RStarTree* tree, BooleanProbe* probe,
                       const TupleVerifier* verifier, const RankingFunction* f,
                       size_t k)
    : tree_(tree), probe_(probe), verifier_(verifier), f_(f), k_(k) {}

Result<TopKOutput> TopKEngine::Run() {
  SearchEntry root;
  root.key = -std::numeric_limits<double>::infinity();
  root.is_data = false;
  root.id = tree_->root();
  root.rect = RectF::Empty(tree_->dims());
  return RunFrom({root});
}

Result<TopKOutput> TopKEngine::RunFrom(const std::vector<SearchEntry>& seed) {
  out_ = TopKOutput();
  heap_.Clear();
  // Data objects carry their exact score, nodes f's lower bound.
  auto key = [this](const RectF& rect, bool is_data) {
    return is_data ? f_->Score(std::span<const float>(
                         rect.min.data(), static_cast<size_t>(tree_->dims())))
                   : f_->LowerBound(rect);
  };
  std::vector<SearchEntry> seeds = seed;
  for (SearchEntry& e : seeds) {
    e.key = !e.path.empty() || e.is_data
                ? key(e.rect, e.is_data)
                : -std::numeric_limits<double>::infinity();
  }
  // The boolean probe is all of the paper's prune() a top-k search runs:
  // score pruning needs k results, and the search stops once it has them.
  PCUBE_RETURN_NOT_OK(heap_.PushSeeds(std::move(seeds), probe_, trace_,
                                      lists_, &out_.b_list, &out_.counters));

  while (!heap_.empty()) {
    if (out_.results.size() >= k_) break;
    if (deadline_ && std::chrono::steady_clock::now() > *deadline_) {
      return Status::Timeout("top-k query deadline exceeded");
    }
    // No re-check on pop: the entry passed its boolean probe when it was
    // pushed, and fewer than k results exist, so nothing can prune it now.
    SearchEntry e = heap_.Pop();

    if (e.is_data) {
      if (verifier_ != nullptr) {
        ScopedSpan span(trace_, "boolean_verify");
        auto ok = verifier_->Verify(e.id);
        if (!ok.ok()) return ok.status();
        ++out_.counters.verified;
        if (!*ok) {
          ++out_.counters.verify_failed;
          ++out_.counters.pruned_boolean;
          FilePruned(lists_, &out_.b_list, std::move(e));
          continue;
        }
      }
      out_.results.push_back(std::move(e));  // ascending-score arrival order
      continue;
    }

    ScopedSpan expand_span(trace_, "heap_expand");
    if (e.path.size() == Path::kMaxLength) {
      return Status::Corruption("R-tree nodes nest deeper than its height");
    }
    auto node_handle = tree_->ReadNode(e.id);
    if (!node_handle.ok()) return node_handle.status();
    ++out_.counters.nodes_expanded;
    NodeView node(node_handle->get(), tree_->dims());
    slots_.clear();
    for (uint32_t s = 0; s < node.max_entries(); ++s) {
      if (node.Valid(s)) slots_.push_back(s);
    }
    PCUBE_RETURN_NOT_OK(heap_.PushChildren(node, e.path, slots_, key, probe_,
                                           trace_, lists_, &out_.b_list,
                                           &out_.counters));
  }

  // Preserve the unexamined frontier for incremental queries (Lemma 2), in
  // ascending bound order.
  while (!heap_.empty()) out_.remaining.push_back(heap_.Pop());
  return std::move(out_);
}

}  // namespace pcube
