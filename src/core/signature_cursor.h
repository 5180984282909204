// Lazy signature retrieval during query processing (paper §IV.B.2).
//
// A cursor materialises one cell's signature incrementally: it starts from
// the partial signature referenced by the R-tree root (SID 0) and, whenever
// the query requests a node that is not yet present, loads further partials
// following the paper's probing rule — "use the first level node in the path
// from the root to n as reference to load the next partial signature; if
// that partial has already been loaded, check the second-level node, and so
// on". Each partial load costs exactly one signature-page read (SSig).
//
// Thread-safety: a cursor is mutable per-query state (the set of loaded
// partials grows as the query probes). One cursor serves one query on one
// thread; concurrent queries get independent cursors via PCube::MakeProbe.
#pragma once

#include <unordered_set>

#include "cache/fragment_cache.h"
#include "core/signature_codec.h"
#include "core/signature_store.h"

namespace pcube {

/// Incremental reader of one cell's stored signature.
class SignatureCursor {
 public:
  /// `cache` (optional) is the shared L2 fragment cache: partial loads are
  /// served from it when possible and publish their decodes into it,
  /// stamped with the cell's epoch read before the store access. L2 hits
  /// do not count as partials_loaded (no page was read, nothing decoded).
  SignatureCursor(const SignatureStore* store, CellId cell, uint32_t fanout,
                  int levels, FragmentCache* cache = nullptr)
      : store_(store),
        cell_(cell),
        cache_(cache),
        loaded_(fanout, levels) {}

  /// True iff the node/tuple addressed by `path` (length in [1, levels]) is
  /// marked present for this cell. Loads partial signatures on demand.
  Result<bool> Test(const Path& path);

  /// Number of partial-signature pages loaded so far.
  uint64_t partials_loaded() const { return partials_loaded_; }

 private:
  /// Ensures the array of the node `sid` is present if it exists in the
  /// stored signature; returns false when the cell's signature provably
  /// lacks it. `prefix_sids[i]` names the node's depth-(i+1) ancestor (the
  /// node itself is `prefix_sids[depth - 1]`), root excluded.
  Result<bool> EnsureNode(uint64_t sid, const uint64_t* prefix_sids,
                          size_t depth);
  Status LoadPartialAt(uint64_t sid);

  const SignatureStore* store_;
  CellId cell_;
  FragmentCache* cache_;
  /// The nodes decoded so far: a subset of the cell's stored signature.
  Signature loaded_;
  std::unordered_set<uint64_t> attempted_;  // partial SIDs already probed
  uint64_t partials_loaded_ = 0;
  bool root_loaded_ = false;
};

}  // namespace pcube
