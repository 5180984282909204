// In-memory signature (paper §IV.B.1). A signature summarises, for one cube
// cell, which regions of the shared R-tree partition contain tuples of that
// cell: it mirrors the R-tree's topology, holding one bit array per node in
// which bit b (1-based, matching slot b of the R-tree node) is 1 iff the
// subtree under that slot contains at least one tuple of the cell. Bits of
// leaf-level arrays address tuple entries directly, which is what makes
// signature-based boolean checking exact (paper §V.A).
//
// Nodes are named by their SID (rtree/path.h): the child under slot s of
// node `sid` is `sid * (M+1) + s`, the root is 0. A signature is a map from
// SID to bit array with one entry per node that has a set bit — the form
// the builder, the algebra, maintenance, the codec (signature_codec.h) and
// the query-time cursor all share.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "bitmap/bitvector.h"
#include "rtree/path.h"

namespace pcube {

/// Signature of one cell over an R-tree with fanout `M` and `levels` node
/// levels (= tuple path length; leaf arrays are at depth levels-1).
class Signature {
 public:
  using NodeMap = std::unordered_map<uint64_t, BitVector>;

  Signature(uint32_t M, int levels) : m_(M), levels_(levels) {}

  Signature(Signature&&) = default;
  Signature& operator=(Signature&&) = default;

  uint32_t fanout() const { return m_; }
  int levels() const { return levels_; }

  /// Marks tuple path `p` (length == levels) as present: sets the bit at
  /// every level and materialises intermediate nodes.
  void SetPath(const Path& p);

  /// Clears the leaf bit of tuple path `p` and propagates emptiness upward
  /// (a node whose array becomes all-zero is removed and its parent bit
  /// cleared) — the exact inverse of SetPath.
  void ClearPath(const Path& p);

  /// True iff the node/tuple addressed by `p` (any length in [1, levels])
  /// is marked present.
  bool Test(const Path& p) const;

  /// True when no bit is set.
  bool Empty() const { return nodes_.empty(); }

  /// Bit array of the node `sid`, or nullptr when the node has none.
  const BitVector* Node(uint64_t sid) const {
    auto it = nodes_.find(sid);
    return it == nodes_.end() ? nullptr : &it->second;
  }

  /// Adds the array of node `sid`; a no-op when the node is already
  /// present. For decoders and the algebra, which produce whole arrays.
  void AddNode(uint64_t sid, BitVector bits) {
    nodes_.emplace(sid, std::move(bits));
  }

  const NodeMap& nodes() const { return nodes_; }

  /// Total set bits across all arrays (for stats/tests).
  uint64_t CountBits() const;

  /// Number of node arrays.
  uint64_t CountNodes() const { return nodes_.size(); }

  bool Equals(const Signature& other) const {
    return m_ == other.m_ && levels_ == other.levels_ &&
           nodes_ == other.nodes_;
  }

  /// Multi-line dump ("<path>: bits", ascending SID) for tests and
  /// debugging.
  std::string ToString() const;

  /// Deep copy (signatures are otherwise move-only to avoid accidents).
  Signature Clone() const {
    Signature out(m_, levels_);
    out.nodes_ = nodes_;
    return out;
  }

 private:
  uint32_t m_;
  int levels_;
  NodeMap nodes_;
};

}  // namespace pcube
