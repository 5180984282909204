// The paper's running example: the 8-tuple sample database of Table I with
// boolean dimensions A (a1..a4) and B (b1..b3), preference dimensions X, Y,
// and the exact R-tree partition of Fig. 1 (m = 1, M = 2) whose tuple paths
// are the `path` column of Table I. Used by tests to reproduce the worked
// signature examples (Fig. 2 and Fig. 3) bit for bit.
#pragma once

#include <tuple>
#include <vector>

#include "cube/relation.h"
#include "rtree/rstar_tree.h"

namespace pcube {

/// Boolean dimension indices and coded values of the sample database.
/// A-values a1..a4 are coded 0..3 on dimension 0; b1..b3 are 0..2 on
/// dimension 1.
inline constexpr int kTable1DimA = 0;
inline constexpr int kTable1DimB = 1;

/// The sample relation of Table I (tids 0..7 = t1..t8).
Dataset MakeTable1Dataset();

/// The (tid, point, path) entries of Table I / Fig. 1, ready for
/// RStarTree::BuildExplicit with dims = 2 and max_entries = 2.
std::vector<RStarTree::ExplicitEntry> Table1TreeEntries();

}  // namespace pcube
