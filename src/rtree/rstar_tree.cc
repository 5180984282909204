#include "rtree/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace pcube {

namespace {

/// Entry gathered from a node during restructuring.
struct GatheredEntry {
  RectF rect;
  uint64_t id = 0;
  /// Original slot in the overflowing node, or -1 for the extra entry that
  /// caused the overflow.
  int orig_slot = -1;
};

/// R* ChooseSplitAxis/ChooseSplitIndex over M+1 entries. Returns the sorted
/// entry order and the split position k: entries [0,k) go left, [k, n) right.
struct SplitDecision {
  std::vector<GatheredEntry> sorted;
  size_t split_at = 0;
};

SplitDecision ChooseSplit(std::vector<GatheredEntry> entries, int dims,
                          uint32_t m) {
  const size_t n = entries.size();
  const size_t mmin = std::max<size_t>(1, static_cast<size_t>(0.4 * (m + 1)));
  PCUBE_DCHECK_GE(n, 2 * mmin);

  auto distribution_margins = [&](std::vector<GatheredEntry>& ents) {
    // Prefix/suffix MBRs for all split positions.
    double total_margin = 0;
    std::vector<RectF> prefix(n), suffix(n);
    prefix[0] = ents[0].rect;
    for (size_t i = 1; i < n; ++i) {
      prefix[i] = prefix[i - 1];
      prefix[i].Expand(ents[i].rect);
    }
    suffix[n - 1] = ents[n - 1].rect;
    for (size_t i = n - 1; i-- > 0;) {
      suffix[i] = suffix[i + 1];
      suffix[i].Expand(ents[i].rect);
    }
    for (size_t k = mmin; k + mmin <= n; ++k) {
      total_margin += prefix[k - 1].Margin() + suffix[k].Margin();
    }
    return std::make_pair(total_margin, std::make_pair(prefix, suffix));
  };

  double best_axis_margin = std::numeric_limits<double>::max();
  SplitDecision best;
  for (int axis = 0; axis < dims; ++axis) {
    for (int by_max = 0; by_max < 2; ++by_max) {
      std::sort(entries.begin(), entries.end(),
                [&](const GatheredEntry& a, const GatheredEntry& b) {
                  return by_max ? a.rect.max[axis] < b.rect.max[axis]
                                : a.rect.min[axis] < b.rect.min[axis];
                });
      auto [margin, mbrs] = distribution_margins(entries);
      if (margin < best_axis_margin) {
        best_axis_margin = margin;
        // Choose the split index on this axis/order: min overlap, then area.
        auto& [prefix, suffix] = mbrs;
        double best_overlap = std::numeric_limits<double>::max();
        double best_area = std::numeric_limits<double>::max();
        size_t best_k = mmin;
        for (size_t k = mmin; k + mmin <= n; ++k) {
          double overlap = prefix[k - 1].OverlapArea(suffix[k]);
          double area = prefix[k - 1].Area() + suffix[k].Area();
          if (overlap < best_overlap ||
              (overlap == best_overlap && area < best_area)) {
            best_overlap = overlap;
            best_area = area;
            best_k = k;
          }
        }
        best.sorted = entries;
        best.split_at = best_k;
      }
    }
  }
  return best;
}

}  // namespace

Result<RStarTree> RStarTree::Create(BufferPool* pool,
                                    const RTreeOptions& options) {
  PCUBE_CHECK_GE(options.dims, 1);
  PCUBE_CHECK_LE(options.dims, kMaxDims);
  RStarTree tree(pool, options);
  PCUBE_CHECK_GE(tree.m_, 2u) << "fanout must be at least 2";
  PageId pid;
  auto handle = pool->New(IoCategory::kRtreeBlock, &pid);
  if (!handle.ok()) return handle.status();
  NodeView(handle->get(), options.dims).Init(/*is_leaf=*/true, /*level=*/0);
  tree.root_ = pid;
  tree.height_ = 0;
  tree.num_pages_ = 1;
  return tree;
}

Status RStarTree::CheckHeight(int height) {
  if (height < 0 || static_cast<size_t>(height) >= Path::kMaxLength) {
    return Status::OutOfRange("an R-tree of " + std::to_string(height + 1) +
                              " levels exceeds the " +
                              std::to_string(Path::kMaxLength) +
                              "-level path limit");
  }
  return Status::OK();
}

size_t RStarTree::ReinsertCount() const {
  return std::max<size_t>(1,
                          static_cast<size_t>(options_.reinsert_fraction * m_));
}

Result<RStarTree> RStarTree::BuildByInsertion(BufferPool* pool,
                                              const Dataset& data,
                                              const RTreeOptions& options) {
  auto tree = Create(pool, options);
  if (!tree.ok()) return tree.status();
  for (TupleId t = 0; t < data.num_tuples(); ++t) {
    PCUBE_RETURN_NOT_OK(tree->Insert(data.PrefPoint(t), t, nullptr));
  }
  return tree;
}

Status RStarTree::ChooseLeaf(const RectF& rect,
                             std::vector<DescentStep>* stack) const {
  stack->clear();
  PageId pid = root_;
  for (int depth = 0; depth <= height_; ++depth) {
    auto handle = pool_->Get(pid, IoCategory::kRtreeBlock);
    if (!handle.ok()) return handle.status();
    NodeView node(handle->get(), options_.dims);
    DescentStep step;
    step.pid = pid;
    if (node.is_leaf()) {
      stack->push_back(step);
      return Status::OK();
    }
    // Collect candidate slots.
    std::vector<uint32_t> slots;
    slots.reserve(node.count());
    for (uint32_t s = 0; s < node.max_entries(); ++s) {
      if (node.Valid(s)) slots.push_back(s);
    }
    PCUBE_CHECK(!slots.empty()) << "internal node with no children";
    uint32_t chosen;
    if (node.level() == 1) {
      // Children are leaves: minimise overlap enlargement (R*), restricted to
      // the 32 candidates with least area enlargement for large fanouts.
      if (slots.size() > 32) {
        std::nth_element(
            slots.begin(), slots.begin() + 32, slots.end(),
            [&](uint32_t a, uint32_t b) {
              return node.GetRect(a).Enlargement(rect) <
                     node.GetRect(b).Enlargement(rect);
            });
        slots.resize(32);
      }
      double best_overlap_delta = std::numeric_limits<double>::max();
      double best_enlarge = std::numeric_limits<double>::max();
      chosen = slots[0];
      for (uint32_t cand : slots) {
        RectF before = node.GetRect(cand);
        RectF after = before;
        after.Expand(rect);
        double delta = 0;
        for (uint32_t s = 0; s < node.max_entries(); ++s) {
          if (!node.Valid(s) || s == cand) continue;
          RectF sib = node.GetRect(s);
          delta += after.OverlapArea(sib) - before.OverlapArea(sib);
        }
        double enlarge = before.Enlargement(rect);
        if (delta < best_overlap_delta ||
            (delta == best_overlap_delta && enlarge < best_enlarge)) {
          best_overlap_delta = delta;
          best_enlarge = enlarge;
          chosen = cand;
        }
      }
    } else {
      // Minimise area enlargement; ties by area.
      double best_enlarge = std::numeric_limits<double>::max();
      double best_area = std::numeric_limits<double>::max();
      chosen = slots[0];
      for (uint32_t cand : slots) {
        RectF r = node.GetRect(cand);
        double enlarge = r.Enlargement(rect);
        double area = r.Area();
        if (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)) {
          best_enlarge = enlarge;
          best_area = area;
          chosen = cand;
        }
      }
    }
    step.slot = chosen;
    stack->push_back(step);
    pid = node.GetId(chosen);
  }
  return Status::Internal("descent exceeded tree height");
}

Status RStarTree::UpdateAncestorMbrs(const std::vector<DescentStep>& stack,
                                     size_t deepest) {
  // Recompute exact MBRs from stack[deepest] upward to the root.
  for (size_t i = deepest; i > 0; --i) {
    RectF child_mbr;
    {
      auto child = pool_->Get(stack[i].pid, IoCategory::kRtreeBlock);
      if (!child.ok()) return child.status();
      child_mbr = NodeView(child->get(), options_.dims).Mbr();
    }
    auto parent = pool_->GetMutable(stack[i - 1].pid, IoCategory::kRtreeBlock);
    if (!parent.ok()) return parent.status();
    NodeView pv(parent->get(), options_.dims);
    pv.SetEntry(stack[i - 1].slot, child_mbr, stack[i].pid);
  }
  return Status::OK();
}

void RStarTree::MarkDirty(PathChangeSet* changes, TupleId tid) {
  if (changes == nullptr) return;
  for (auto& c : changes->changes) {
    if (c.tid == tid) {
      c.has_new = false;
      return;
    }
  }
}

void RStarTree::RecordOldPath(PathChangeSet* changes, TupleId tid,
                              std::span<const float> point,
                              const Path& old_path) {
  if (changes == nullptr) return;
  for (auto& c : changes->changes) {
    if (c.tid == tid) {
      // First recorded old path wins (it predates every move in this batch),
      // but the new path must be recomputed after this move.
      c.has_new = false;
      return;
    }
  }
  PathChange c;
  c.tid = tid;
  c.point.assign(point.begin(), point.end());
  c.has_old = true;
  c.has_new = false;
  c.old_path = old_path;
  changes->changes.push_back(std::move(c));
}

Status RStarTree::CollectSubtreePaths(PageId pid, Path* prefix,
                                      const PathVisitor& visit) const {
  auto handle = pool_->Get(pid, IoCategory::kRtreeBlock);
  if (!handle.ok()) return handle.status();
  NodeView node(handle->get(), options_.dims);
  if (prefix->size() == Path::kMaxLength && node.count() > 0) {
    return Status::Corruption("R-tree nodes nest deeper than its height");
  }
  for (uint32_t s = 0; s < node.max_entries(); ++s) {
    if (!node.Valid(s)) continue;
    prefix->push_back(static_cast<uint16_t>(s + 1));
    if (node.is_leaf()) {
      RectF r = node.GetRect(s);
      visit(node.GetId(s), *prefix,
            std::span<const float>(r.min.data(),
                                   static_cast<size_t>(options_.dims)));
    } else {
      // Pins nest safely; recursion depth is bounded by the tree height.
      PCUBE_RETURN_NOT_OK(CollectSubtreePaths(node.GetId(s), prefix, visit));
    }
    prefix->pop_back();
  }
  return Status::OK();
}

Status RStarTree::SplitNode(std::vector<DescentStep>* stack, size_t depth,
                            const RectF& extra_rect, uint64_t extra_id,
                            PathChangeSet* changes) {
  const PageId node_pid = (*stack)[depth].pid;
  bool is_leaf;
  uint16_t level;
  std::vector<GatheredEntry> entries;
  {
    auto handle = pool_->Get(node_pid, IoCategory::kRtreeBlock);
    if (!handle.ok()) return handle.status();
    NodeView node(handle->get(), options_.dims);
    is_leaf = node.is_leaf();
    level = node.level();
    entries.reserve(node.count() + 1);
    for (uint32_t s = 0; s < node.max_entries(); ++s) {
      if (!node.Valid(s)) continue;
      entries.push_back({node.GetRect(s), node.GetId(s), static_cast<int>(s)});
    }
  }
  entries.push_back({extra_rect, extra_id, -1});

  SplitDecision split = ChooseSplit(std::move(entries), options_.dims, m_);

  // Build the path prefix of this node (pre-split ancestry).
  Path node_prefix;
  for (size_t i = 0; i < depth; ++i) {
    node_prefix.push_back(static_cast<uint16_t>((*stack)[i].slot + 1));
  }

  // Record old paths for everything that moves to the right node. Entries
  // staying in the left node keep their slots, so their paths are unchanged.
  if (changes != nullptr) {
    for (size_t i = split.split_at; i < split.sorted.size(); ++i) {
      const GatheredEntry& e = split.sorted[i];
      if (e.orig_slot < 0) continue;  // extra entry: recorded by the caller
      Path old_path = node_prefix;
      old_path.push_back(static_cast<uint16_t>(e.orig_slot + 1));
      if (is_leaf) {
        std::span<const float> pt(e.rect.min.data(),
                                  static_cast<size_t>(options_.dims));
        RecordOldPath(changes, e.id, pt, old_path);
      } else {
        PCUBE_RETURN_NOT_OK(CollectSubtreePaths(
            e.id, &old_path,
            [&](TupleId tid, const Path& p, std::span<const float> pt) {
              RecordOldPath(changes, tid, pt, p);
            }));
      }
    }
  }

  // Restructure the left node: clear moved entries, then place the extra
  // entry if it belongs left.
  RectF left_mbr = RectF::Empty(options_.dims);
  RectF right_mbr = RectF::Empty(options_.dims);
  PageId right_pid;
  {
    auto handle = pool_->GetMutable(node_pid, IoCategory::kRtreeBlock);
    if (!handle.ok()) return handle.status();
    NodeView node(handle->get(), options_.dims);
    for (size_t i = split.split_at; i < split.sorted.size(); ++i) {
      if (split.sorted[i].orig_slot >= 0) {
        node.ClearEntry(static_cast<uint32_t>(split.sorted[i].orig_slot));
      }
    }
    for (size_t i = 0; i < split.split_at; ++i) {
      const GatheredEntry& e = split.sorted[i];
      if (e.orig_slot < 0) {
        uint32_t free = node.FirstFreeSlot();
        PCUBE_CHECK_LT(free, m_);
        node.SetEntry(free, e.rect, e.id);
      }
      left_mbr.Expand(e.rect);
    }

    // Build the right node.
    auto right = pool_->New(IoCategory::kRtreeBlock, &right_pid);
    if (!right.ok()) return right.status();
    ++num_pages_;
    NodeView rnode(right->get(), options_.dims);
    rnode.Init(is_leaf, level);
    uint32_t slot = 0;
    for (size_t i = split.split_at; i < split.sorted.size(); ++i) {
      rnode.SetEntry(slot++, split.sorted[i].rect, split.sorted[i].id);
      right_mbr.Expand(split.sorted[i].rect);
    }
  }

  if (depth == 0) {
    // Root split: add a level.
    PageId new_root;
    auto handle = pool_->New(IoCategory::kRtreeBlock, &new_root);
    if (!handle.ok()) return handle.status();
    ++num_pages_;
    NodeView root(handle->get(), options_.dims);
    root.Init(/*is_leaf=*/false, static_cast<uint16_t>(level + 1));
    root.SetEntry(0, left_mbr, node_pid);
    root.SetEntry(1, right_mbr, right_pid);
    root_ = new_root;
    ++height_;
    if (changes != nullptr) changes->root_split = true;
    return Status::OK();
  }

  // Update the parent: fix the left child's MBR, then add the right child.
  {
    auto parent = pool_->GetMutable((*stack)[depth - 1].pid,
                                    IoCategory::kRtreeBlock);
    if (!parent.ok()) return parent.status();
    NodeView pv(parent->get(), options_.dims);
    pv.SetEntry((*stack)[depth - 1].slot, left_mbr, node_pid);
    uint32_t free = pv.FirstFreeSlot();
    if (free < m_) {
      pv.SetEntry(free, right_mbr, right_pid);
      parent->Release();
      return UpdateAncestorMbrs(*stack, depth - 1);
    }
  }
  // Parent overflows in turn.
  return SplitNode(stack, depth - 1, right_mbr, right_pid, changes);
}

Status RStarTree::InsertLeafEntry(const PendingEntry& entry,
                                  PathChangeSet* changes, bool* reinsert_done,
                                  std::vector<PendingEntry>* pending) {
  std::vector<DescentStep> stack;
  PCUBE_RETURN_NOT_OK(ChooseLeaf(entry.rect, &stack));
  const size_t leaf_depth = stack.size() - 1;
  const PageId leaf_pid = stack[leaf_depth].pid;

  uint32_t free_slot;
  {
    auto handle = pool_->GetMutable(leaf_pid, IoCategory::kRtreeBlock);
    if (!handle.ok()) return handle.status();
    NodeView leaf(handle->get(), options_.dims);
    free_slot = leaf.FirstFreeSlot();
    if (free_slot < m_) {
      leaf.SetEntry(free_slot, entry.rect, entry.tid);
      MarkDirty(changes, entry.tid);
      handle->Release();
      return UpdateAncestorMbrs(stack, leaf_depth);
    }
  }

  // Overflow treatment (R*): forced re-insertion once per logical insert at
  // the leaf level, unless the leaf is the root; otherwise split.
  if (leaf_depth > 0 && options_.forced_reinsert && !*reinsert_done) {
    *reinsert_done = true;
    Path leaf_prefix;
    for (size_t i = 0; i < leaf_depth; ++i) {
      leaf_prefix.push_back(static_cast<uint16_t>(stack[i].slot + 1));
    }
    auto handle = pool_->GetMutable(leaf_pid, IoCategory::kRtreeBlock);
    if (!handle.ok()) return handle.status();
    NodeView leaf(handle->get(), options_.dims);
    RectF mbr = leaf.Mbr();
    mbr.Expand(entry.rect);
    struct Victim {
      uint32_t slot;
      double dist;
    };
    std::vector<Victim> victims;
    victims.reserve(leaf.count());
    for (uint32_t s = 0; s < leaf.max_entries(); ++s) {
      if (leaf.Valid(s)) {
        victims.push_back({s, leaf.GetRect(s).CenterDist2(mbr)});
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const Victim& a, const Victim& b) { return a.dist > b.dist; });
    size_t k = std::min(ReinsertCount(), victims.size());
    for (size_t i = 0; i < k; ++i) {
      uint32_t s = victims[i].slot;
      RectF r = leaf.GetRect(s);
      TupleId tid = leaf.GetId(s);
      Path old_path = leaf_prefix;
      old_path.push_back(static_cast<uint16_t>(s + 1));
      std::span<const float> pt(r.min.data(), static_cast<size_t>(options_.dims));
      RecordOldPath(changes, tid, pt, old_path);
      pending->push_back({r, tid});
      leaf.ClearEntry(s);
    }
    uint32_t slot = leaf.FirstFreeSlot();
    PCUBE_CHECK_LT(slot, m_);
    leaf.SetEntry(slot, entry.rect, entry.tid);
    MarkDirty(changes, entry.tid);
    handle->Release();
    return UpdateAncestorMbrs(stack, leaf_depth);
  }

  return SplitNode(&stack, leaf_depth, entry.rect, entry.tid, changes);
}

Status RStarTree::FinalizeNewPaths(PathChangeSet* changes) {
  if (changes == nullptr) return Status::OK();
  for (auto& c : changes->changes) {
    if (c.deleted || c.has_new) continue;
    auto path = FindPath(c.point, c.tid);
    if (!path.ok()) return path.status();
    c.new_path = std::move(*path);
    c.has_new = true;
  }
  return Status::OK();
}

Status RStarTree::Insert(std::span<const float> point, TupleId tid,
                         PathChangeSet* changes) {
  PCUBE_CHECK_EQ(point.size(), static_cast<size_t>(options_.dims));
  if (!CheckHeight(height_ + 1).ok()) {
    // A root split adds a level. Each entry this insert places (the new one
    // and every one forced re-insertion moves) can split one leaf and carry
    // one new entry up to the root, so refuse, before touching a page, any
    // insert that could overflow it.
    auto root = pool_->Get(root_, IoCategory::kRtreeBlock);
    if (!root.ok()) return root.status();
    const size_t placed =
        1 + (options_.forced_reinsert && height_ > 0 ? ReinsertCount() : 0);
    if (NodeView(root->get(), options_.dims).count() + placed > m_) {
      return CheckHeight(height_ + 1);
    }
  }
  bool reinsert_done = false;
  std::vector<PendingEntry> pending;
  pending.push_back({RectF::Point(point), tid});
  if (changes != nullptr) {
    bool known = false;
    for (auto& c : changes->changes) {
      if (c.tid == tid) {  // re-insert of a tuple touched earlier in a batch
        c.deleted = false;
        c.has_new = false;
        c.point.assign(point.begin(), point.end());
        known = true;
        break;
      }
    }
    if (!known) {
      PathChange c;
      c.tid = tid;
      c.point.assign(point.begin(), point.end());
      c.has_old = false;
      c.has_new = false;
      changes->changes.push_back(std::move(c));
    }
  }
  while (!pending.empty()) {
    PendingEntry e = pending.back();
    pending.pop_back();
    PCUBE_RETURN_NOT_OK(InsertLeafEntry(e, changes, &reinsert_done, &pending));
  }
  ++num_entries_;
  return FinalizeNewPaths(changes);
}

Status RStarTree::Delete(std::span<const float> point, TupleId tid,
                         PathChangeSet* changes) {
  auto found = FindPath(point, tid);
  if (!found.ok()) return found.status();
  const Path& path = *found;

  // Resolve the descent stack along the known path.
  std::vector<DescentStep> stack;
  PageId pid = root_;
  for (size_t i = 0; i < path.size(); ++i) {
    DescentStep step;
    step.pid = pid;
    step.slot = static_cast<uint32_t>(path[i] - 1);
    stack.push_back(step);
    if (i + 1 < path.size()) {
      auto handle = pool_->Get(pid, IoCategory::kRtreeBlock);
      if (!handle.ok()) return handle.status();
      pid = NodeView(handle->get(), options_.dims).GetId(step.slot);
    }
  }

  {
    auto handle = pool_->GetMutable(stack.back().pid, IoCategory::kRtreeBlock);
    if (!handle.ok()) return handle.status();
    NodeView leaf(handle->get(), options_.dims);
    leaf.ClearEntry(stack.back().slot);
  }
  --num_entries_;

  // Walk upward: drop now-empty nodes from their parents (their pages leak;
  // the tree never merges nodes, so surviving slots — and paths — stay
  // stable), then recompute ancestor MBRs exactly.
  bool clearing = true;
  for (size_t i = stack.size(); i-- > 1;) {
    RectF child_mbr;
    uint16_t child_count;
    {
      auto handle = pool_->Get(stack[i].pid, IoCategory::kRtreeBlock);
      if (!handle.ok()) return handle.status();
      NodeView node(handle->get(), options_.dims);
      child_count = node.count();
      child_mbr = node.Mbr();
    }
    auto parent = pool_->GetMutable(stack[i - 1].pid, IoCategory::kRtreeBlock);
    if (!parent.ok()) return parent.status();
    NodeView pv(parent->get(), options_.dims);
    if (clearing && child_count == 0) {
      pv.ClearEntry(stack[i - 1].slot);
    } else {
      clearing = false;
      pv.SetEntry(stack[i - 1].slot, child_mbr, stack[i].pid);
    }
  }

  if (changes != nullptr) {
    bool known = false;
    for (auto& c : changes->changes) {
      if (c.tid == tid) {
        c.deleted = true;
        c.has_new = false;
        known = true;
        break;
      }
    }
    if (!known) {
      PathChange c;
      c.tid = tid;
      c.point.assign(point.begin(), point.end());
      c.has_old = true;
      c.old_path = path;
      c.deleted = true;
      changes->changes.push_back(std::move(c));
    }
  }
  return Status::OK();
}

namespace {

/// DFS search for a (point, tid) leaf entry; prunes by MBR containment.
Status FindPathRec(BufferPool* pool, int dims, PageId pid,
                   std::span<const float> point, TupleId tid, Path* path,
                   bool* found) {
  auto handle = pool->Get(pid, IoCategory::kRtreeBlock);
  if (!handle.ok()) return handle.status();
  NodeView node(handle->get(), dims);
  if (path->size() == Path::kMaxLength) {
    return Status::Corruption("R-tree nodes nest deeper than its height");
  }
  for (uint32_t s = 0; s < node.max_entries(); ++s) {
    if (!node.Valid(s)) continue;
    if (node.is_leaf()) {
      if (node.GetId(s) != tid) continue;
      RectF r = node.GetRect(s);
      if (!r.ContainsPoint(point)) continue;
      path->push_back(static_cast<uint16_t>(s + 1));
      *found = true;
      return Status::OK();
    }
    if (!node.GetRect(s).ContainsPoint(point)) continue;
    path->push_back(static_cast<uint16_t>(s + 1));
    PCUBE_RETURN_NOT_OK(
        FindPathRec(pool, dims, node.GetId(s), point, tid, path, found));
    if (*found) return Status::OK();
    path->pop_back();
  }
  return Status::OK();
}

}  // namespace

Result<Path> RStarTree::FindPath(std::span<const float> point,
                                 TupleId tid) const {
  Path path;
  bool found = false;
  PCUBE_RETURN_NOT_OK(
      FindPathRec(pool_, options_.dims, root_, point, tid, &path, &found));
  if (!found) {
    return Status::NotFound("tuple " + std::to_string(tid) + " not in tree");
  }
  return path;
}

Status RStarTree::CollectPaths(const PathVisitor& visit) const {
  Path prefix;
  return CollectSubtreePaths(root_, &prefix, visit);
}

Result<PageId> RStarTree::ResolvePath(const Path& path, IoCategory cat) const {
  PageId pid = root_;
  for (uint16_t p : path) {
    auto handle = pool_->Get(pid, cat);
    if (!handle.ok()) return handle.status();
    NodeView node(handle->get(), options_.dims);
    uint32_t slot = static_cast<uint32_t>(p - 1);
    if (p < 1 || slot >= node.max_entries() || !node.Valid(slot) ||
        node.is_leaf()) {
      return Status::NotFound("path does not address a node");
    }
    pid = node.GetId(slot);
  }
  return pid;
}

Result<RStarTree> RStarTree::BulkLoad(BufferPool* pool, const Dataset& data,
                                      const RTreeOptions& options) {
  const uint64_t n = data.num_tuples();
  // Only the empty tree takes Create()'s pre-allocated root; a non-empty
  // load builds every node (the root included) itself, so pre-allocating
  // would orphan a page and overcount num_pages().
  if (n == 0) return Create(pool, options);
  RStarTree tree(pool, options);
  PCUBE_CHECK_GE(tree.m_, 2u) << "fanout must be at least 2";
  const int dims = options.dims;
  const uint32_t cap = std::max<uint32_t>(
      2, static_cast<uint32_t>(options.bulk_fill * tree.m_));

  struct Item {
    RectF rect;
    uint64_t id;
  };
  std::vector<Item> items;
  items.reserve(n);
  for (TupleId t = 0; t < n; ++t) {
    items.push_back({RectF::Point(data.PrefPoint(t)), t});
  }

  // Sort-Tile-Recursive tiling: recursively slab-partition by each axis.
  std::vector<std::vector<Item>> groups;
  std::function<void(std::span<Item>, int)> tile = [&](std::span<Item> span,
                                                       int axis) {
    if (span.size() <= cap) {
      groups.emplace_back(span.begin(), span.end());
      return;
    }
    std::sort(span.begin(), span.end(), [axis](const Item& a, const Item& b) {
      float ca = a.rect.min[axis] + a.rect.max[axis];
      float cb = b.rect.min[axis] + b.rect.max[axis];
      return ca < cb;
    });
    if (axis == dims - 1) {
      for (size_t i = 0; i < span.size(); i += cap) {
        size_t len = std::min<size_t>(cap, span.size() - i);
        groups.emplace_back(span.begin() + i, span.begin() + i + len);
      }
      return;
    }
    double leaves = std::ceil(static_cast<double>(span.size()) / cap);
    size_t slabs = static_cast<size_t>(
        std::ceil(std::pow(leaves, 1.0 / (dims - axis))));
    slabs = std::max<size_t>(1, slabs);
    size_t per_slab = (span.size() + slabs - 1) / slabs;
    for (size_t i = 0; i < span.size(); i += per_slab) {
      size_t len = std::min(per_slab, span.size() - i);
      tile(span.subspan(i, len), axis + 1);
    }
  };

  // Builds one level of nodes from grouped children; returns (mbr, id) per
  // node for the level above.
  auto build_level = [&](const std::vector<std::vector<Item>>& grps,
                         bool is_leaf, uint16_t level,
                         std::vector<Item>* out) -> Status {
    out->clear();
    for (const auto& g : grps) {
      PageId pid;
      {
        auto handle = pool->New(IoCategory::kRtreeBlock, &pid);
        if (!handle.ok()) return handle.status();
        ++tree.num_pages_;
      }
      auto handle = pool->GetMutable(pid, IoCategory::kRtreeBlock);
      if (!handle.ok()) return handle.status();
      NodeView node(handle->get(), dims);
      node.Init(is_leaf, level);
      RectF mbr = RectF::Empty(dims);
      uint32_t slot = 0;
      for (const Item& it : g) {
        node.SetEntry(slot++, it.rect, it.id);
        mbr.Expand(it.rect);
      }
      out->push_back({mbr, pid});
    }
    return Status::OK();
  };

  tile(items, 0);
  std::vector<Item> level_items;
  PCUBE_RETURN_NOT_OK(build_level(groups, /*is_leaf=*/true, 0, &level_items));
  uint16_t level = 0;
  while (level_items.size() > 1) {
    ++level;
    PCUBE_RETURN_NOT_OK(CheckHeight(level));
    groups.clear();
    tile(level_items, 0);
    std::vector<Item> next;
    PCUBE_RETURN_NOT_OK(build_level(groups, /*is_leaf=*/false, level, &next));
    level_items = std::move(next);
  }
  tree.root_ = static_cast<PageId>(level_items[0].id);
  tree.height_ = level;
  tree.num_entries_ = n;
  return tree;
}

Result<RStarTree> RStarTree::BuildGridPartition(BufferPool* pool,
                                                const Dataset& data,
                                                const RTreeOptions& options,
                                                int cells_per_dim) {
  PCUBE_CHECK_GE(cells_per_dim, 1);
  const uint64_t n = data.num_tuples();
  if (n == 0) return Create(pool, options);
  RStarTree tree(pool, options);
  PCUBE_CHECK_GE(tree.m_, 2u) << "fanout must be at least 2";
  const int dims = options.dims;

  // Per-dimension bounds of the data.
  std::vector<float> lo(dims, std::numeric_limits<float>::max());
  std::vector<float> hi(dims, std::numeric_limits<float>::lowest());
  for (TupleId t = 0; t < n; ++t) {
    auto pt = data.PrefPoint(t);
    for (int d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], pt[d]);
      hi[d] = std::max(hi[d], pt[d]);
    }
  }

  // Bucket tuples into row-major cell ids.
  auto cell_of = [&](std::span<const float> pt) {
    uint64_t id = 0;
    for (int d = 0; d < dims; ++d) {
      double width = static_cast<double>(hi[d]) - lo[d];
      int c = width <= 0 ? 0
                         : std::min<int>(cells_per_dim - 1,
                                         static_cast<int>((pt[d] - lo[d]) /
                                                          width *
                                                          cells_per_dim));
      id = id * cells_per_dim + static_cast<uint64_t>(c);
    }
    return id;
  };
  std::map<uint64_t, std::vector<TupleId>> cells;
  for (TupleId t = 0; t < n; ++t) {
    cells[cell_of(data.PrefPoint(t))].push_back(t);
  }

  // Leaves: each grid cell's tuples chunked to the fill target; cells are
  // emitted in row-major order, which keeps neighbouring cells in
  // neighbouring upper-level nodes.
  const uint32_t cap = std::max<uint32_t>(
      2, static_cast<uint32_t>(options.bulk_fill * tree.m_));
  struct Item {
    RectF rect;
    uint64_t id;
  };
  std::vector<Item> level_items;
  for (const auto& [cell_id, tids] : cells) {
    for (size_t i = 0; i < tids.size(); i += cap) {
      PageId pid;
      auto handle = pool->New(IoCategory::kRtreeBlock, &pid);
      if (!handle.ok()) return handle.status();
      ++tree.num_pages_;
      NodeView node(handle->get(), dims);
      node.Init(/*is_leaf=*/true, 0);
      RectF mbr = RectF::Empty(dims);
      uint32_t slot = 0;
      for (size_t j = i; j < std::min(tids.size(), i + cap); ++j) {
        RectF r = RectF::Point(data.PrefPoint(tids[j]));
        node.SetEntry(slot++, r, tids[j]);
        mbr.Expand(r);
      }
      level_items.push_back({mbr, pid});
    }
  }

  // Upper levels: sequential packing of the (spatially ordered) children.
  uint16_t level = 0;
  while (level_items.size() > 1) {
    ++level;
    PCUBE_RETURN_NOT_OK(CheckHeight(level));
    std::vector<Item> next;
    for (size_t i = 0; i < level_items.size(); i += cap) {
      PageId pid;
      auto handle = pool->New(IoCategory::kRtreeBlock, &pid);
      if (!handle.ok()) return handle.status();
      ++tree.num_pages_;
      NodeView node(handle->get(), dims);
      node.Init(/*is_leaf=*/false, level);
      RectF mbr = RectF::Empty(dims);
      uint32_t slot = 0;
      for (size_t j = i; j < std::min(level_items.size(), i + cap); ++j) {
        node.SetEntry(slot++, level_items[j].rect, level_items[j].id);
        mbr.Expand(level_items[j].rect);
      }
      next.push_back({mbr, pid});
    }
    level_items = std::move(next);
  }
  tree.root_ = static_cast<PageId>(level_items[0].id);
  tree.height_ = level;
  tree.num_entries_ = n;
  return tree;
}

Result<RStarTree> RStarTree::BuildExplicit(
    BufferPool* pool, const RTreeOptions& options,
    const std::vector<ExplicitEntry>& entries) {
  PCUBE_CHECK(!entries.empty());
  const size_t depth = std::get<2>(entries[0]).size();
  for (const auto& e : entries) {
    PCUBE_CHECK_EQ(std::get<2>(e).size(), depth) << "uneven path lengths";
  }
  PCUBE_RETURN_NOT_OK(CheckHeight(static_cast<int>(depth) - 1));
  auto tree_result = Create(pool, options);
  if (!tree_result.ok()) return tree_result.status();
  RStarTree tree = std::move(*tree_result);

  // Materialise nodes keyed by path prefix, creating them on demand.
  std::map<Path, PageId> nodes;
  nodes[{}] = tree.root_;
  {
    auto root = pool->GetMutable(tree.root_, IoCategory::kRtreeBlock);
    if (!root.ok()) return root.status();
    NodeView(root->get(), options.dims)
        .Init(depth == 1, static_cast<uint16_t>(depth - 1));
  }
  tree.height_ = static_cast<int>(depth) - 1;

  auto get_or_create = [&](const Path& prefix) -> Result<PageId> {
    auto it = nodes.find(prefix);
    if (it != nodes.end()) return it->second;
    PageId pid;
    auto handle = pool->New(IoCategory::kRtreeBlock, &pid);
    if (!handle.ok()) return handle.status();
    ++tree.num_pages_;
    NodeView(handle->get(), options.dims)
        .Init(prefix.size() == depth - 1,
              static_cast<uint16_t>(depth - 1 - prefix.size()));
    nodes[prefix] = pid;
    return pid;
  };

  for (const auto& [tid, point, slots] : entries) {
    const Path path(slots.begin(), slots.end());
    Path prefix(path.begin(), path.end() - 1);
    auto leaf = get_or_create(prefix);
    if (!leaf.ok()) return leaf.status();
    auto handle = pool->GetMutable(*leaf, IoCategory::kRtreeBlock);
    if (!handle.ok()) return handle.status();
    NodeView node(handle->get(), options.dims);
    PCUBE_CHECK_LE(path.back(), tree.m_) << "slot exceeds fanout";
    node.SetEntry(static_cast<uint32_t>(path.back() - 1),
                  RectF::Point(point), tid);
  }

  // Wire up internal entries bottom-up (deepest prefixes first) and set MBRs.
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    const Path& prefix = it->first;
    if (prefix.empty()) continue;
    RectF mbr;
    {
      auto handle = pool->Get(it->second, IoCategory::kRtreeBlock);
      if (!handle.ok()) return handle.status();
      mbr = NodeView(handle->get(), options.dims).Mbr();
    }
    Path parent_prefix(prefix.begin(), prefix.end() - 1);
    auto parent = get_or_create(parent_prefix);
    if (!parent.ok()) return parent.status();
    auto handle = pool->GetMutable(*parent, IoCategory::kRtreeBlock);
    if (!handle.ok()) return handle.status();
    NodeView(handle->get(), options.dims)
        .SetEntry(static_cast<uint32_t>(prefix.back() - 1), mbr, it->second);
  }
  tree.num_entries_ = entries.size();
  return tree;
}

Status RStarTree::CheckStructure(std::vector<std::string>* problems) const {
  struct Pending {
    PageId pid;
    int expected_level;
    bool has_parent_rect;
    RectF parent_rect;
  };
  auto note = [problems](PageId pid, const std::string& what) {
    problems->push_back("rtree page " + std::to_string(pid) + ": " + what);
  };
  std::vector<Pending> stack;
  stack.push_back({root_, height_, false, RectF::Empty(options_.dims)});
  uint64_t nodes_seen = 0;
  uint64_t leaf_entries = 0;
  while (!stack.empty()) {
    Pending cur = stack.back();
    stack.pop_back();
    auto handle = pool_->Get(cur.pid, IoCategory::kRtreeBlock);
    if (!handle.ok()) {
      note(cur.pid, handle.status().ToString());
      continue;
    }
    ++nodes_seen;
    NodeView node(handle->get(), options_.dims);
    if (node.level() != cur.expected_level) {
      note(cur.pid, "level " + std::to_string(node.level()) + ", expected " +
                        std::to_string(cur.expected_level));
    }
    if (node.is_leaf() != (cur.expected_level == 0)) {
      note(cur.pid, "leaf flag disagrees with level");
    }
    uint32_t valid = 0;
    for (uint32_t s = 0; s < node.max_entries(); ++s) {
      if (!node.Valid(s)) continue;
      ++valid;
      RectF rect = node.GetRect(s);
      if (cur.has_parent_rect) {
        // Float equality is exact here: parent entries are computed as the
        // max/min over these very child values.
        for (int d = 0; d < options_.dims; ++d) {
          if (rect.min[d] < cur.parent_rect.min[d] ||
              rect.max[d] > cur.parent_rect.max[d]) {
            note(cur.pid, "entry " + std::to_string(s) +
                              " escapes its parent MBR");
            break;
          }
        }
      }
      if (node.is_leaf()) {
        ++leaf_entries;
      } else {
        stack.push_back({static_cast<PageId>(node.GetId(s)),
                         cur.expected_level - 1, true, rect});
      }
    }
    if (valid != node.count()) {
      note(cur.pid, "header count " + std::to_string(node.count()) +
                        " but " + std::to_string(valid) + " valid slots");
    }
  }
  if (nodes_seen != num_pages_) {
    problems->push_back("rtree: visited " + std::to_string(nodes_seen) +
                        " nodes, catalog says " + std::to_string(num_pages_));
  }
  if (leaf_entries != num_entries_) {
    problems->push_back("rtree: found " + std::to_string(leaf_entries) +
                        " leaf entries, catalog says " +
                        std::to_string(num_entries_));
  }
  return Status::OK();
}

}  // namespace pcube
