// Paged R*-tree over the preference dimensions (Guttman [15] structure with
// the R*-tree improvements of Beckmann et al. [16]: margin-based split axis
// selection, overlap-minimal split index, and forced re-insertion).
//
// This tree is the shared partition template of the P-Cube (paper §IV.A,
// third proposal): it is built once over all tuples, and every cube cell's
// signature summarises which of its nodes contain tuples of that cell.
// To make that possible the tree:
//   * keeps entries in stable slots with free-entry reuse (§IV.B.3), so a
//     tuple's path only changes under node splits / forced re-insertion;
//   * reports every such path change through a PathChangeSet so the P-Cube
//     can be maintained incrementally.
//
// Thread-safety: the const read path (ReadNode, ResolvePath, Root and the
// accessors) keeps no mutable state of its own — all page traffic goes
// through the striped BufferPool — so any number of threads may query a
// built tree concurrently. Insert/Delete/BulkLoad mutate nodes in place and
// are single-threaded by contract (DESIGN.md "Concurrency model").
#pragma once

#include <functional>
#include <span>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "cube/relation.h"
#include "rtree/node.h"
#include "rtree/path.h"
#include "storage/buffer_pool.h"

namespace pcube {

/// Construction / maintenance knobs.
struct RTreeOptions {
  int dims = 2;
  /// 0 derives the fanout from the page size (NodeView::MaxEntries).
  uint32_t max_entries = 0;
  /// Fraction of M removed by forced re-insertion (R* paper: 30%).
  double reinsert_fraction = 0.3;
  /// Enables R* forced re-insertion on leaf overflow.
  bool forced_reinsert = true;
  /// Leaf fill factor used by STR bulk loading.
  double bulk_fill = 0.9;
};

/// Disk-resident R*-tree storing (point, TupleId) leaf entries.
class RStarTree {
 public:
  /// Visits one stored tuple: its id, current path, and point coordinates.
  using PathVisitor =
      std::function<void(TupleId, const Path&, std::span<const float>)>;

  /// One leaf entry of an explicitly prescribed tree: (tid, point, 1-based
  /// slots from the root). The slots are a plain vector because the caller
  /// may describe a tree deeper than a Path holds; BuildExplicit refuses it.
  using ExplicitEntry =
      std::tuple<TupleId, std::vector<float>, std::vector<uint16_t>>;

  /// OK when a tree whose root sits at level `height` (leaves at 0) has
  /// paths that fit a Path (height + 1 <= Path::kMaxLength); OutOfRange
  /// otherwise. Every construction and insert checks it before the tree
  /// grows a level.
  static Status CheckHeight(int height);

  /// Creates an empty tree (a single empty leaf as root).
  static Result<RStarTree> Create(BufferPool* pool, const RTreeOptions& options);

  /// Builds by repeated R* insertion (the faithful construction-cost path
  /// measured in Fig. 5).
  static Result<RStarTree> BuildByInsertion(BufferPool* pool,
                                            const Dataset& data,
                                            const RTreeOptions& options);

  /// Sort-Tile-Recursive bulk load; fast setup path for tests/benchmarks.
  static Result<RStarTree> BulkLoad(BufferPool* pool, const Dataset& data,
                                    const RTreeOptions& options);

  /// Equi-width grid partition (paper §IV.B.1: "the same concept can be
  /// applied with other multidimensional partition methods"; the ranking
  /// cube [12] uses grids). Tuples are bucketed into cells_per_dim^dims
  /// cells; each cell's tuples pack into leaves, and upper levels are built
  /// over the cell rectangles. Signatures, probes and engines work
  /// unchanged on the result — the grid is just a different template.
  static Result<RStarTree> BuildGridPartition(BufferPool* pool,
                                              const Dataset& data,
                                              const RTreeOptions& options,
                                              int cells_per_dim);

  /// Re-attaches to a previously built tree (catalog-driven reopen).
  static RStarTree Attach(BufferPool* pool, const RTreeOptions& options,
                          PageId root, int height, uint64_t num_entries,
                          uint64_t num_pages) {
    RStarTree tree(pool, options);
    tree.root_ = root;
    tree.height_ = height;
    tree.num_entries_ = num_entries;
    tree.num_pages_ = num_pages;
    return tree;
  }

  /// Constructs a tree with an explicitly prescribed structure: each entry is
  /// (tid, point, full path); all paths must have equal length. Used to
  /// replicate the paper's worked example (Table I / Fig. 1) exactly.
  /// OutOfRange when the paths are longer than Path::kMaxLength.
  static Result<RStarTree> BuildExplicit(
      BufferPool* pool, const RTreeOptions& options,
      const std::vector<ExplicitEntry>& entries);

  /// Inserts one point; appends all resulting path changes (including the new
  /// tuple's path) to `*changes` when non-null. A tree at the depth limit
  /// (CheckHeight) refuses, with OutOfRange and unchanged, any insert that
  /// could split its root.
  Status Insert(std::span<const float> point, TupleId tid,
                PathChangeSet* changes);

  /// Removes the entry (point, tid). NotFound if absent. Other tuples' paths
  /// are unaffected (slots are never compacted).
  Status Delete(std::span<const float> point, TupleId tid,
                PathChangeSet* changes);

  /// Path of the leaf entry holding (point, tid).
  Result<Path> FindPath(std::span<const float> point, TupleId tid) const;

  /// Visits every stored tuple with its current path and point (DFS order).
  Status CollectPaths(const PathVisitor& visit) const;

  /// Reads a node page for query processing, charged to `cat`.
  Result<PageHandle> ReadNode(PageId pid,
                              IoCategory cat = IoCategory::kRtreeBlock) const {
    return pool_->Get(pid, cat);
  }

  /// Resolves a node path (1-based slots) to its page id; the root is the
  /// empty path. Reads are charged to `cat`.
  Result<PageId> ResolvePath(const Path& path, IoCategory cat) const;

  /// Structural integrity walk (pcube verify): every node is readable, slot
  /// counts match headers, levels descend to 0 at the leaves, child MBRs
  /// are contained in their parent entry, and the totals agree with
  /// num_entries()/num_pages(). Appends one message per problem to
  /// `*problems`; returns non-OK only when a page cannot be read at all.
  Status CheckStructure(std::vector<std::string>* problems) const;

  PageId root() const { return root_; }
  /// Root level; leaves are level 0, so height() + 1 node levels exist.
  int height() const { return height_; }
  uint32_t fanout() const { return m_; }
  int dims() const { return options_.dims; }
  uint64_t num_entries() const { return num_entries_; }
  uint64_t num_pages() const { return num_pages_; }
  BufferPool* pool() const { return pool_; }
  const RTreeOptions& options() const { return options_; }

 private:
  RStarTree(BufferPool* pool, const RTreeOptions& options)
      : pool_(pool),
        options_(options),
        m_(options.max_entries != 0 ? options.max_entries
                                    : NodeView::MaxEntries(options.dims)) {}

  struct DescentStep {
    PageId pid = kInvalidPageId;
    uint32_t slot = 0;  // slot taken in this node to reach the child
  };

  /// One pending (re)insertion of a leaf entry.
  struct PendingEntry {
    RectF rect;
    TupleId tid;
  };

  Status InsertLeafEntry(const PendingEntry& entry, PathChangeSet* changes,
                         bool* reinsert_done,
                         std::vector<PendingEntry>* pending);
  Status ChooseLeaf(const RectF& rect, std::vector<DescentStep>* stack) const;
  Status UpdateAncestorMbrs(const std::vector<DescentStep>& stack,
                            size_t upto_level);
  Status SplitNode(std::vector<DescentStep>* stack, size_t depth,
                   const RectF& extra_rect, uint64_t extra_id,
                   PathChangeSet* changes);
  Status CollectSubtreePaths(PageId pid, Path* prefix,
                             const PathVisitor& visit) const;
  void RecordOldPath(PathChangeSet* changes, TupleId tid,
                     std::span<const float> point, const Path& old_path);
  void MarkDirty(PathChangeSet* changes, TupleId tid);
  Status FinalizeNewPaths(PathChangeSet* changes);
  /// Entries forced re-insertion moves out of an overflowing leaf.
  size_t ReinsertCount() const;

  BufferPool* pool_;
  RTreeOptions options_;
  uint32_t m_;
  PageId root_ = kInvalidPageId;
  int height_ = 0;
  uint64_t num_entries_ = 0;
  uint64_t num_pages_ = 0;
};

}  // namespace pcube
