// Per-dimension B+-tree index over a boolean dimension, as used by the
// Boolean-first baseline (paper §VI.A: "We use B+-tree to index each boolean
// dimension"). Duplicate values are handled by packing a sequence number
// into the low bits of the key: key = value << 40 | seq, so an equality
// predicate becomes the range [value<<40, (value<<40) | maxseq].
#pragma once

#include "common/status.h"
#include "cube/relation.h"
#include "storage/bplus_tree.h"

namespace pcube {

/// Equality-lookup index on one boolean dimension.
class BooleanIndex {
 public:
  /// Bulk-builds the index for dimension `dim` of `data`.
  static Result<BooleanIndex> Build(BufferPool* pool, const Dataset& data,
                                    int dim);

  /// Re-attaches to a previously built index (catalog-driven reopen); fails
  /// as BPlusTree::Attach does.
  static Result<BooleanIndex> Attach(BufferPool* pool, int dim, PageId root,
                                     uint64_t num_entries, uint64_t num_pages,
                                     uint64_t next_seq) {
    auto tree = BPlusTree::Attach(pool, root, num_entries, num_pages);
    if (!tree.ok()) return tree.status();
    BooleanIndex index(std::move(*tree), dim);
    index.next_seq_ = next_seq;
    return index;
  }

  const BPlusTree& tree() const { return tree_; }
  uint64_t next_seq() const { return next_seq_; }

  /// Appends a posting for a newly inserted tuple.
  Status Add(uint32_t value, TupleId tid);

  /// Collects the TupleIds with A_dim = value, in insertion order.
  Result<std::vector<TupleId>> Lookup(uint32_t value) const;

  /// Number of matching tuples without materialising them (still reads the
  /// leaf pages — an index-only scan).
  Result<uint64_t> Count(uint32_t value) const;

  uint64_t num_pages() const { return tree_.num_pages(); }
  int dim() const { return dim_; }

 private:
  static constexpr int kSeqBits = 40;

  BooleanIndex(BPlusTree tree, int dim) : tree_(std::move(tree)), dim_(dim) {}

  static uint64_t MakeKey(uint32_t value, uint64_t seq) {
    PCUBE_DCHECK_LT(seq, uint64_t{1} << kSeqBits);
    return (static_cast<uint64_t>(value) << kSeqBits) | seq;
  }

  BPlusTree tree_;
  int dim_;
  uint64_t next_seq_ = 0;
};

}  // namespace pcube
