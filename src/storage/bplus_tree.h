// Disk-style B+-tree over 64-bit keys and values, stored in 4 KB pages
// behind a BufferPool. Used in two roles:
//   * the per-dimension boolean index of the Boolean-first baseline
//     (composite key <value, seq> -> tuple id, range-scanned per predicate);
//   * the P-Cube signature directory, mapping <cell id, SID> -> page id of a
//     partial signature (paper §VI.A: "Signatures are compressed, decomposed
//     and indexed (using B+-tree) by cell IDs and SID's").
//
// Keys are unique; callers needing duplicates pack a sequence number into
// the key's low bits (see BooleanIndex).
//
// Thread-safety: Get and RangeScan are const, keep no iterator state in the
// tree, and are safe from any number of threads against a built tree.
// Insert splits pages in place and is single-threaded by contract.
#pragma once

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "storage/buffer_pool.h"

namespace pcube {

/// Paged B+-tree with uint64 keys and values.
class BPlusTree {
 public:
  /// Creates an empty tree whose node fetches are charged to `cat`.
  static Result<BPlusTree> Create(BufferPool* pool,
                                  IoCategory cat = IoCategory::kBtree);

  /// Re-attaches to an existing tree given its root page (e.g. after reopening
  /// a FilePageManager). Walks from the root to the leftmost leaf to learn
  /// the height, so a damaged page on that walk fails here with the read's
  /// status (Corruption on a checksum mismatch).
  static Result<BPlusTree> Attach(BufferPool* pool, PageId root,
                                  uint64_t num_entries, uint64_t num_pages = 0,
                                  IoCategory cat = IoCategory::kBtree);

  /// Builds a tree bottom-up from key-ascending (key, value) pairs. Much
  /// faster than repeated Insert and produces full pages; used by the
  /// construction-cost benchmarks (Fig. 5/6).
  static Result<BPlusTree> BulkLoad(
      BufferPool* pool, const std::vector<std::pair<uint64_t, uint64_t>>& sorted,
      IoCategory cat = IoCategory::kBtree);

  /// Inserts or overwrites `key`.
  Status Insert(uint64_t key, uint64_t value);

  /// Point lookup. NotFound if absent.
  Result<uint64_t> Get(uint64_t key) const;

  /// Visits all entries with lo <= key <= hi in ascending key order.
  /// The visitor returns false to stop early.
  Status RangeScan(uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t key, uint64_t value)>& visit) const;

  uint64_t num_entries() const { return num_entries_; }
  PageId root() const { return root_; }
  int height() const { return height_; }

  /// Pages owned by this tree (leaves + internal), for size accounting.
  uint64_t num_pages() const { return num_pages_; }

 private:
  BPlusTree(BufferPool* pool, IoCategory cat) : pool_(pool), cat_(cat) {}

  struct SplitResult {
    bool split = false;
    uint64_t promoted_key = 0;  // smallest key of the new right sibling
    PageId right = kInvalidPageId;
  };

  Status InsertRecursive(PageId pid, int level, uint64_t key, uint64_t value,
                         SplitResult* out);

  BufferPool* pool_;
  IoCategory cat_;
  PageId root_ = kInvalidPageId;
  int height_ = 0;  // 0 = root is a leaf
  uint64_t num_entries_ = 0;
  uint64_t num_pages_ = 0;
};

}  // namespace pcube
