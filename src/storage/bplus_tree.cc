#include "storage/bplus_tree.h"

#include <algorithm>
#include <vector>

#include "common/bit_util.h"

namespace pcube {

namespace {

// Page layout
// -----------
// Leaf:      u8 kind(1) | u8 pad | u16 count | u64 next_leaf | entries...
//            entry = key u64, value u64 (16 B); capacity kLeafCap.
// Internal:  u8 kind(0) | u8 pad | u16 count(=#keys) | u64 pad |
//            child[0] u64 | { key u64, child u64 } * count
constexpr size_t kHeaderSize = 12;
constexpr size_t kLeafCap = (kPageSize - kHeaderSize) / 16;           // 255
constexpr size_t kInternalCap = (kPageSize - kHeaderSize - 8) / 16;   // max keys

uint8_t Kind(const Page& p) { return p.bytes[0]; }
void SetKind(Page* p, uint8_t k) { p->bytes[0] = k; }
uint16_t Count(const Page& p) { return bit_util::LoadLE<uint16_t>(p.data() + 2); }
void SetCount(Page* p, uint16_t c) { bit_util::StoreLE<uint16_t>(p->data() + 2, c); }
uint64_t NextLeaf(const Page& p) { return bit_util::LoadLE<uint64_t>(p.data() + 4); }
void SetNextLeaf(Page* p, uint64_t n) { bit_util::StoreLE<uint64_t>(p->data() + 4, n); }

uint64_t LeafKey(const Page& p, size_t i) {
  return bit_util::LoadLE<uint64_t>(p.data() + kHeaderSize + i * 16);
}
uint64_t LeafValue(const Page& p, size_t i) {
  return bit_util::LoadLE<uint64_t>(p.data() + kHeaderSize + i * 16 + 8);
}
void SetLeafEntry(Page* p, size_t i, uint64_t k, uint64_t v) {
  bit_util::StoreLE<uint64_t>(p->data() + kHeaderSize + i * 16, k);
  bit_util::StoreLE<uint64_t>(p->data() + kHeaderSize + i * 16 + 8, v);
}

uint64_t Child(const Page& p, size_t i) {
  // child[0] sits right after the header; child[i>0] after key[i-1].
  if (i == 0) return bit_util::LoadLE<uint64_t>(p.data() + kHeaderSize);
  return bit_util::LoadLE<uint64_t>(p.data() + kHeaderSize + 8 + (i - 1) * 16 + 8);
}
void SetChild(Page* p, size_t i, uint64_t c) {
  if (i == 0) {
    bit_util::StoreLE<uint64_t>(p->data() + kHeaderSize, c);
  } else {
    bit_util::StoreLE<uint64_t>(p->data() + kHeaderSize + 8 + (i - 1) * 16 + 8, c);
  }
}
uint64_t InternalKey(const Page& p, size_t i) {
  return bit_util::LoadLE<uint64_t>(p.data() + kHeaderSize + 8 + i * 16);
}
void SetInternalKey(Page* p, size_t i, uint64_t k) {
  bit_util::StoreLE<uint64_t>(p->data() + kHeaderSize + 8 + i * 16, k);
}

/// First index i in the leaf with key[i] >= key (lower bound).
size_t LeafLowerBound(const Page& p, uint64_t key) {
  size_t lo = 0, hi = Count(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (LeafKey(p, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Child slot to descend into for `key`: number of keys <= key.
size_t InternalChildIndex(const Page& p, uint64_t key) {
  size_t lo = 0, hi = Count(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (InternalKey(p, mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Result<BPlusTree> BPlusTree::Create(BufferPool* pool, IoCategory cat) {
  BPlusTree tree(pool, cat);
  PageId pid;
  auto page = pool->New(cat, &pid);
  if (!page.ok()) return page.status();
  SetKind(page->get(), 1);
  SetCount(page->get(), 0);
  SetNextLeaf(page->get(), kInvalidPageId);
  tree.root_ = pid;
  tree.height_ = 0;
  tree.num_pages_ = 1;
  return tree;
}

Result<BPlusTree> BPlusTree::Attach(BufferPool* pool, PageId root,
                                    uint64_t num_entries, uint64_t num_pages,
                                    IoCategory cat) {
  BPlusTree tree(pool, cat);
  tree.root_ = root;
  tree.num_entries_ = num_entries;
  tree.num_pages_ = num_pages;
  // The height is not in the catalog: walk the leftmost path to a leaf.
  PageId pid = root;
  int h = 0;
  while (true) {
    auto ref = pool->Get(pid, cat);
    if (!ref.ok()) return ref.status();
    if (Kind(**ref) == 1) break;
    pid = Child(**ref, 0);
    ++h;
  }
  tree.height_ = h;
  return tree;
}

Status BPlusTree::InsertRecursive(PageId pid, int level, uint64_t key,
                                  uint64_t value, SplitResult* out) {
  out->split = false;
  if (level == 0) {
    auto ref = pool_->GetMutable(pid, cat_);
    if (!ref.ok()) return ref.status();
    Page* leaf = ref->get();
    size_t idx = LeafLowerBound(*leaf, key);
    size_t n = Count(*leaf);
    if (idx < n && LeafKey(*leaf, idx) == key) {
      SetLeafEntry(leaf, idx, key, value);  // overwrite
      return Status::OK();
    }
    if (n < kLeafCap) {
      for (size_t i = n; i > idx; --i) {
        SetLeafEntry(leaf, i, LeafKey(*leaf, i - 1), LeafValue(*leaf, i - 1));
      }
      SetLeafEntry(leaf, idx, key, value);
      SetCount(leaf, static_cast<uint16_t>(n + 1));
      ++num_entries_;
      return Status::OK();
    }
    // Split the leaf: left keeps the lower half.
    PageId right_pid;
    auto right_ref = pool_->New(cat_, &right_pid);
    if (!right_ref.ok()) return right_ref.status();
    ++num_pages_;
    Page* right = right_ref->get();
    SetKind(right, 1);
    size_t mid = (n + 1) / 2;
    // Gather all n+1 entries in order, then redistribute.
    std::vector<std::pair<uint64_t, uint64_t>> all;
    all.reserve(n + 1);
    for (size_t i = 0; i < n; ++i) {
      if (i == idx) all.emplace_back(key, value);
      all.emplace_back(LeafKey(*leaf, i), LeafValue(*leaf, i));
    }
    if (idx == n) all.emplace_back(key, value);
    for (size_t i = 0; i < mid; ++i) SetLeafEntry(leaf, i, all[i].first, all[i].second);
    SetCount(leaf, static_cast<uint16_t>(mid));
    for (size_t i = mid; i < all.size(); ++i) {
      SetLeafEntry(right, i - mid, all[i].first, all[i].second);
    }
    SetCount(right, static_cast<uint16_t>(all.size() - mid));
    SetNextLeaf(right, NextLeaf(*leaf));
    SetNextLeaf(leaf, right_pid);
    ++num_entries_;
    out->split = true;
    out->promoted_key = all[mid].first;
    out->right = right_pid;
    return Status::OK();
  }

  // Internal node.
  size_t slot;
  PageId child_pid;
  {
    auto ref = pool_->Get(pid, cat_);
    if (!ref.ok()) return ref.status();
    slot = InternalChildIndex(**ref, key);
    child_pid = Child(**ref, slot);
  }
  SplitResult child_split;
  PCUBE_RETURN_NOT_OK(InsertRecursive(child_pid, level - 1, key, value, &child_split));
  if (!child_split.split) return Status::OK();

  auto ref = pool_->GetMutable(pid, cat_);
  if (!ref.ok()) return ref.status();
  Page* node = ref->get();
  size_t n = Count(*node);
  if (n < kInternalCap) {
    for (size_t i = n; i > slot; --i) {
      SetInternalKey(node, i, InternalKey(*node, i - 1));
      SetChild(node, i + 1, Child(*node, i));
    }
    SetInternalKey(node, slot, child_split.promoted_key);
    SetChild(node, slot + 1, child_split.right);
    SetCount(node, static_cast<uint16_t>(n + 1));
    return Status::OK();
  }
  // Split the internal node.
  std::vector<uint64_t> keys;
  std::vector<uint64_t> children;
  keys.reserve(n + 1);
  children.reserve(n + 2);
  children.push_back(Child(*node, 0));
  for (size_t i = 0; i < n; ++i) {
    if (i == slot) {
      keys.push_back(child_split.promoted_key);
      children.push_back(child_split.right);
    }
    keys.push_back(InternalKey(*node, i));
    children.push_back(Child(*node, i + 1));
  }
  if (slot == n) {
    keys.push_back(child_split.promoted_key);
    children.push_back(child_split.right);
  }
  size_t total = keys.size();  // n + 1
  size_t mid = total / 2;      // key[mid] moves up
  PageId right_pid;
  auto right_ref = pool_->New(cat_, &right_pid);
  if (!right_ref.ok()) return right_ref.status();
  ++num_pages_;
  Page* right = right_ref->get();
  SetKind(right, 0);
  // Left: keys [0, mid), children [0, mid].
  SetChild(node, 0, children[0]);
  for (size_t i = 0; i < mid; ++i) {
    SetInternalKey(node, i, keys[i]);
    SetChild(node, i + 1, children[i + 1]);
  }
  SetCount(node, static_cast<uint16_t>(mid));
  // Right: keys (mid, total), children [mid+1, total].
  SetChild(right, 0, children[mid + 1]);
  for (size_t i = mid + 1; i < total; ++i) {
    SetInternalKey(right, i - mid - 1, keys[i]);
    SetChild(right, i - mid, children[i + 1]);
  }
  SetCount(right, static_cast<uint16_t>(total - mid - 1));
  out->split = true;
  out->promoted_key = keys[mid];
  out->right = right_pid;
  return Status::OK();
}

Status BPlusTree::Insert(uint64_t key, uint64_t value) {
  SplitResult split;
  PCUBE_RETURN_NOT_OK(InsertRecursive(root_, height_, key, value, &split));
  if (split.split) {
    PageId new_root;
    auto ref = pool_->New(cat_, &new_root);
    if (!ref.ok()) return ref.status();
    ++num_pages_;
    Page* node = ref->get();
    SetKind(node, 0);
    SetCount(node, 1);
    SetChild(node, 0, root_);
    SetInternalKey(node, 0, split.promoted_key);
    SetChild(node, 1, split.right);
    root_ = new_root;
    ++height_;
  }
  return Status::OK();
}

Result<uint64_t> BPlusTree::Get(uint64_t key) const {
  PageId pid = root_;
  for (int level = height_; level > 0; --level) {
    auto ref = pool_->Get(pid, cat_);
    if (!ref.ok()) return ref.status();
    pid = Child(**ref, InternalChildIndex(**ref, key));
  }
  auto ref = pool_->Get(pid, cat_);
  if (!ref.ok()) return ref.status();
  const Page& leaf = **ref;
  size_t idx = LeafLowerBound(leaf, key);
  if (idx < Count(leaf) && LeafKey(leaf, idx) == key) return LeafValue(leaf, idx);
  return Status::NotFound("key " + std::to_string(key));
}

Status BPlusTree::RangeScan(
    uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, uint64_t)>& visit) const {
  if (lo > hi) return Status::OK();
  PageId pid = root_;
  for (int level = height_; level > 0; --level) {
    auto ref = pool_->Get(pid, cat_);
    if (!ref.ok()) return ref.status();
    pid = Child(**ref, InternalChildIndex(**ref, lo));
  }
  while (pid != kInvalidPageId) {
    auto ref = pool_->Get(pid, cat_);
    if (!ref.ok()) return ref.status();
    const Page& leaf = **ref;
    size_t n = Count(leaf);
    for (size_t i = LeafLowerBound(leaf, lo); i < n; ++i) {
      uint64_t k = LeafKey(leaf, i);
      if (k > hi) return Status::OK();
      if (!visit(k, LeafValue(leaf, i))) return Status::OK();
    }
    pid = NextLeaf(leaf);
  }
  return Status::OK();
}

Result<BPlusTree> BPlusTree::BulkLoad(
    BufferPool* pool, const std::vector<std::pair<uint64_t, uint64_t>>& sorted,
    IoCategory cat) {
  if (sorted.empty()) return Create(pool, cat);
  BPlusTree tree(pool, cat);

  // Level 0: pack leaves. The previous leaf stays pinned so its next-leaf
  // pointer can be patched once the successor's page id is known.
  std::vector<std::pair<uint64_t, PageId>> level;  // (first key, pid)
  PageHandle prev_ref;
  size_t i = 0;
  while (i < sorted.size()) {
    PageId pid;
    auto ref = pool->New(cat, &pid);
    if (!ref.ok()) return ref.status();
    ++tree.num_pages_;
    Page* leaf = ref->get();
    SetKind(leaf, 1);
    SetNextLeaf(leaf, kInvalidPageId);
    size_t n = std::min(kLeafCap, sorted.size() - i);
    for (size_t j = 0; j < n; ++j) {
      PCUBE_CHECK(j == 0 || sorted[i + j].first > sorted[i + j - 1].first)
          << "BulkLoad requires strictly ascending keys";
      SetLeafEntry(leaf, j, sorted[i + j].first, sorted[i + j].second);
    }
    SetCount(leaf, static_cast<uint16_t>(n));
    if (prev_ref.valid()) SetNextLeaf(prev_ref.get(), pid);
    level.emplace_back(sorted[i].first, pid);
    prev_ref = std::move(*ref);
    i += n;
  }
  prev_ref.Release();
  tree.num_entries_ = sorted.size();

  // Upper levels.
  int height = 0;
  while (level.size() > 1) {
    std::vector<std::pair<uint64_t, PageId>> next;
    size_t j = 0;
    while (j < level.size()) {
      PageId pid;
      auto ref = pool->New(cat, &pid);
      if (!ref.ok()) return ref.status();
      ++tree.num_pages_;
      Page* node = ref->get();
      SetKind(node, 0);
      size_t fanout = std::min(kInternalCap + 1, level.size() - j);
      if (level.size() - j - fanout == 1) --fanout;  // avoid an orphan child
      SetChild(node, 0, level[j].second);
      for (size_t c = 1; c < fanout; ++c) {
        SetInternalKey(node, c - 1, level[j + c].first);
        SetChild(node, c, level[j + c].second);
      }
      SetCount(node, static_cast<uint16_t>(fanout - 1));
      next.emplace_back(level[j].first, pid);
      j += fanout;
    }
    level = std::move(next);
    ++height;
  }
  tree.root_ = level[0].second;
  tree.height_ = height;
  return tree;
}

}  // namespace pcube
