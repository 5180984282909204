// Builds cell signatures from tuple paths (paper §IV.B.1, "Summarizing Data
// for Group-bys"). The paper computes each cuboid's signatures tuple-wise by
// recursively sorting the grouped tuples' paths; an in-memory signature (a
// SID-keyed node map) makes the sort unnecessary — inserting paths in any
// order produces the identical signature — so the builder just groups by
// cell and inserts.
#pragma once

#include <vector>

#include "core/signature.h"
#include "cube/cell.h"
#include "cube/relation.h"
#include "rtree/rstar_tree.h"

namespace pcube {

/// Tuple paths of an entire tree, indexed by TupleId.
class PathTable {
 public:
  /// Collects every tuple's current path from `tree` (one DFS).
  static Result<PathTable> Collect(const RStarTree& tree);

  const Path& path(TupleId t) const {
    PCUBE_DCHECK_LT(t, paths_.size());
    return paths_[t];
  }
  size_t size() const { return paths_.size(); }

  /// False when the tuple has no path — it is not in the tree (deleted).
  /// Rebuild loops over the full tid range must skip such tuples; their
  /// bits belong to no cell.
  bool contains(TupleId t) const {
    return t < paths_.size() && !paths_[t].empty();
  }

  void Set(TupleId t, Path p) {
    if (t >= paths_.size()) paths_.resize(t + 1);
    paths_[t] = std::move(p);
  }

 private:
  std::vector<Path> paths_;
};

/// Builds the signatures of one atomic cuboid (boolean dimension `dim`):
/// one Signature per value 0..cardinality-1. Signatures of values that never
/// occur are empty.
std::vector<Signature> BuildAtomicCuboidSignatures(const Dataset& data,
                                                   const PathTable& paths,
                                                   int dim, uint32_t fanout,
                                                   int levels);

/// Builds the signature of one arbitrary cell (conjunctive predicate set) by
/// direct grouping — the offline reference against which online signature
/// intersection is validated.
Signature BuildCellSignature(const Dataset& data, const PathTable& paths,
                             const PredicateSet& preds, uint32_t fanout,
                             int levels);

}  // namespace pcube
