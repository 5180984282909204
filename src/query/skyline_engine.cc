#include "query/skyline_engine.h"

#include <limits>

#include "rtree/node.h"

namespace pcube {

SkylineEngine::SkylineEngine(const RStarTree* tree, BooleanProbe* probe,
                             const TupleVerifier* verifier,
                             SkylineQueryOptions options)
    : tree_(tree), probe_(probe), verifier_(verifier),
      options_(std::move(options)) {
  if (options_.pref_dims.empty()) {
    for (int d = 0; d < tree_->dims(); ++d) dims_.push_back(d);
  } else {
    dims_ = options_.pref_dims;
  }
  PCUBE_CHECK_GE(options_.skyband_k, size_t{1});
  PCUBE_CHECK(options_.origin.empty() ||
              options_.origin.size() == static_cast<size_t>(tree_->dims()))
      << "dynamic-skyline origin needs one coordinate per tree dimension";
  window_.Reset(dims_.size());
  cand_scratch_.resize(dims_.size());
}

double SkylineEngine::LowCoord(const RectF& rect, int d) const {
  if (options_.origin.empty()) return rect.min[d];
  // Dynamic skyline: least |x - origin_d| for x in [min, max].
  double q = options_.origin[d];
  if (q < rect.min[d]) return rect.min[d] - q;
  if (q > rect.max[d]) return q - rect.max[d];
  return 0.0;
}

double SkylineEngine::EntryKey(const RectF& rect) const {
  double s = 0;
  for (int d : dims_) s += LowCoord(rect, d);
  return s;
}

void SkylineEngine::TransformInto(const RectF& rect) const {
  for (size_t i = 0; i < dims_.size(); ++i) {
    cand_scratch_[i] = LowCoord(rect, dims_[i]);
  }
}

bool SkylineEngine::Dominated(const RectF& rect) const {
  // One batched pass over the SoA window (4 members per AVX2 step),
  // saturating at skyband_k dominators — the same count the scalar
  // member-at-a-time loop produced.
  TransformInto(rect);
  return window_.CountDominators(cand_scratch_.data(), options_.skyband_k) >=
         options_.skyband_k;
}

Result<SkylineOutput> SkylineEngine::Run() {
  SearchEntry root;
  root.key = -std::numeric_limits<double>::infinity();
  root.is_data = false;
  root.id = tree_->root();
  root.rect = RectF::Empty(tree_->dims());
  return RunFrom({root});
}

Result<SkylineOutput> SkylineEngine::RunFrom(
    const std::vector<SearchEntry>& seed) {
  out_ = SkylineOutput();
  window_.Reset(dims_.size());
  heap_.Clear();
  // The skyline is still empty, so no seed is dominated: the seeds take only
  // the boolean half of prune().
  std::vector<SearchEntry> seeds = seed;
  for (SearchEntry& e : seeds) {
    e.key = e.path.empty() ? -std::numeric_limits<double>::infinity()
                           : EntryKey(e.rect);
  }
  PCUBE_RETURN_NOT_OK(heap_.PushSeeds(std::move(seeds), probe_, trace_,
                                      lists_, &out_.b_list, &out_.counters));
  auto key = [this](const RectF& rect, bool) { return EntryKey(rect); };

  while (!heap_.empty()) {
    if (deadline_ && std::chrono::steady_clock::now() > *deadline_) {
      return Status::Timeout("skyline query deadline exceeded");
    }
    SearchEntry e = heap_.Pop();
    // Re-check domination: the skyline may have grown since e entered the
    // heap. Its boolean probe passed then, and a probe's verdict on a path
    // never changes within a run, so it is not asked again.
    if (Dominated(e.rect)) {
      ++out_.counters.pruned_preference;
      FilePruned(lists_, &out_.d_list, std::move(e));
      continue;
    }

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
      // Accepted results are points (min == max), so LowCoord is their
      // exact transformed coordinate; the window caches it column-major so
      // later dominance tests never touch the member rects again.
      TransformInto(e.rect);
      window_.Append(cand_scratch_.data());
      out_.skyline.push_back(std::move(e));
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
    // The paper's prune() (lines 14-20): domination first, the boolean probe
    // second — the order decides which list a doubly-pruned child lands in.
    // A child becomes an entry only once it survives both, or under kKeep
    // to be filed into a list.
    slots_.clear();
    for (uint32_t s = 0; s < node.max_entries(); ++s) {
      if (!node.Valid(s)) continue;
      if (Dominated(node.GetRect(s))) {
        ++out_.counters.pruned_preference;
        if (lists_ == PrunedLists::kKeep) {
          out_.d_list.push_back(ChildEntry(node, s, e.path, key));
        }
        continue;
      }
      slots_.push_back(s);
    }
    // Every child was tested against the same skyline (it only grows on a
    // pop), so probing the survivors as one batch changes no verdict.
    PCUBE_RETURN_NOT_OK(heap_.PushChildren(node, e.path, slots_, key, probe_,
                                           trace_, lists_, &out_.b_list,
                                           &out_.counters));
  }
  return std::move(out_);
}

}  // namespace pcube
